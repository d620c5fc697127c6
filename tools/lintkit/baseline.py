"""Committed violation baseline.

A baseline entry suppresses one known violation by its content fingerprint
(rule id + path + whitespace-normalized source line, so entries survive
unrelated line-number drift).  The workflow:

* ``lint_repro.py --write-baseline`` snapshots the current violations into
  the baseline file with a ``TODO`` justification placeholder;
* each entry's ``justification`` must then be filled in by hand — the
  baseline is a reviewable list of debts, not a mute button;
* a **stale** entry (one that no longer matches any violation) fails the
  run, so fixed debts are deleted rather than accumulating;
* CI runs with ``--forbid-baseline``, which fails on *any* entry: new debts
  must be argued in review (by touching the CI flag) instead of slipping in
  through the baseline file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from lintkit.model import Violation

BASELINE_VERSION = 1
JUSTIFICATION_PLACEHOLDER = "TODO: justify or fix"


@dataclass(frozen=True)
class BaselineEntry:
    rule_id: str
    relpath: str
    fingerprint: str
    snippet: str
    justification: str


class Baseline:
    """The parsed baseline file (an absent file is an empty baseline)."""

    def __init__(self, entries: tuple[BaselineEntry, ...] = ()) -> None:
        self.entries = entries
        self._by_fingerprint = {entry.fingerprint: entry for entry in entries}

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, violation: Violation) -> bool:
        return violation.fingerprint() in self._by_fingerprint

    def stale_entries(self, violations: list[Violation]) -> list[BaselineEntry]:
        """Entries no longer matched by any current violation."""
        live = {violation.fingerprint() for violation in violations}
        return [entry for entry in self.entries if entry.fingerprint not in live]

    def unjustified_entries(self) -> list[BaselineEntry]:
        """Entries whose justification was never filled in."""
        return [
            entry
            for entry in self.entries
            if not entry.justification.strip()
            or entry.justification == JUSTIFICATION_PLACEHOLDER
        ]


def load_baseline(path: Path) -> Baseline:
    """Read ``path`` (absent -> empty baseline; malformed -> ValueError)."""
    if not path.is_file():
        return Baseline()
    document = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(document, dict) or document.get("version") != BASELINE_VERSION:
        raise ValueError(f"{path}: not a version-{BASELINE_VERSION} repro-lint baseline")
    entries = []
    for raw in document.get("entries", []):
        entries.append(
            BaselineEntry(
                rule_id=str(raw["rule"]),
                relpath=str(raw["path"]),
                fingerprint=str(raw["fingerprint"]),
                snippet=str(raw.get("snippet", "")),
                justification=str(raw.get("justification", "")),
            )
        )
    return Baseline(tuple(entries))


def write_baseline(path: Path, violations: list[Violation]) -> Baseline:
    """Snapshot ``violations`` into ``path`` (sorted, canonical JSON)."""
    entries = tuple(
        BaselineEntry(
            rule_id=violation.rule_id,
            relpath=violation.relpath,
            fingerprint=violation.fingerprint(),
            snippet=" ".join(violation.snippet.split()),
            justification=JUSTIFICATION_PLACEHOLDER,
        )
        for violation in sorted(
            violations, key=lambda v: (v.relpath, v.rule_id, v.line, v.column)
        )
    )
    document = {
        "version": BASELINE_VERSION,
        "entries": [
            {
                "rule": entry.rule_id,
                "path": entry.relpath,
                "fingerprint": entry.fingerprint,
                "snippet": entry.snippet,
                "justification": entry.justification,
            }
            for entry in entries
        ],
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return Baseline(entries)
