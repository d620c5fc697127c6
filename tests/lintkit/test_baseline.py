"""Baseline workflow: write -> justify -> stale -> forbid."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lintkit.baseline import (
    JUSTIFICATION_PLACEHOLDER,
    Baseline,
    load_baseline,
    write_baseline,
)
from lintkit.model import Violation
from lintkit.runner import main


def _violation(snippet: str = "import random") -> Violation:
    return Violation(
        rule_id="RL001",
        rule_name="rng-discipline",
        relpath="src/repro/module.py",
        line=3,
        column=1,
        message="stdlib `random` is banned",
        snippet=snippet,
    )


def _tree(tmp_path: Path) -> tuple[Path, Path]:
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "module.py").write_text("import random\n", encoding="utf-8")
    return tmp_path, tmp_path / "baseline.json"


def _run(tree: Path, baseline: Path, *extra: str) -> int:
    return main(["--root", str(tree), "--baseline", str(baseline), "src", *extra])


def _justify_all(baseline: Path, reason: str) -> None:
    document = json.loads(baseline.read_text(encoding="utf-8"))
    for entry in document["entries"]:
        entry["justification"] = reason
    baseline.write_text(json.dumps(document), encoding="utf-8")


def test_fingerprint_survives_line_drift() -> None:
    anchored_low = _violation()
    anchored_high = Violation(**{**anchored_low.__dict__, "line": 99, "column": 5})
    assert anchored_low.fingerprint() == anchored_high.fingerprint()


def test_fingerprint_normalizes_whitespace_only() -> None:
    assert _violation("import   random").fingerprint() == _violation().fingerprint()
    assert _violation("import randoms").fingerprint() != _violation().fingerprint()


def test_load_absent_baseline_is_empty(tmp_path: Path) -> None:
    baseline = load_baseline(tmp_path / "missing.json")
    assert len(baseline) == 0
    assert not baseline.matches(_violation())


def test_load_rejects_wrong_version(tmp_path: Path) -> None:
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "entries": []}', encoding="utf-8")
    with pytest.raises(ValueError, match="version-1"):
        load_baseline(path)


def test_write_then_load_round_trips(tmp_path: Path) -> None:
    path = tmp_path / "baseline.json"
    write_baseline(path, [_violation()])
    baseline = load_baseline(path)
    assert len(baseline) == 1
    assert baseline.matches(_violation())
    assert baseline.unjustified_entries() == list(baseline.entries)
    assert baseline.entries[0].justification == JUSTIFICATION_PLACEHOLDER


def test_stale_entries_detect_fixed_violations(tmp_path: Path) -> None:
    path = tmp_path / "baseline.json"
    baseline = write_baseline(path, [_violation()])
    assert baseline.stale_entries([_violation()]) == []
    assert len(baseline.stale_entries([])) == 1


def test_workflow_write_justify_fix(tmp_path: Path) -> None:
    tree, baseline = _tree(tmp_path)

    # A fresh violation fails the run.
    assert _run(tree, baseline) == 1

    # Snapshot it; the run now exits 0 from --write-baseline itself...
    assert _run(tree, baseline, "--write-baseline") == 0
    document = json.loads(baseline.read_text(encoding="utf-8"))
    assert len(document["entries"]) == 1
    assert document["entries"][0]["rule"] == "RL001"

    # ...but the placeholder justification still fails a normal run.
    assert _run(tree, baseline) == 1

    # Filling in the justification makes the tree pass.
    _justify_all(baseline, "legacy seed helper, scheduled for PR 8")
    assert _run(tree, baseline) == 0

    # Fixing the violation turns the entry stale — which also fails.
    (tree / "src" / "repro" / "module.py").write_text("x = 1\n", encoding="utf-8")
    assert _run(tree, baseline) == 1


def test_forbid_baseline_fails_on_any_entry(tmp_path: Path) -> None:
    tree, baseline = _tree(tmp_path)
    assert _run(tree, baseline, "--write-baseline") == 0
    _justify_all(baseline, "justified, but CI must still flag it")
    assert _run(tree, baseline) == 0
    assert _run(tree, baseline, "--forbid-baseline") == 1


def test_no_baseline_flag_reports_everything(tmp_path: Path) -> None:
    tree, baseline = _tree(tmp_path)
    assert _run(tree, baseline, "--write-baseline") == 0
    _justify_all(baseline, "fine")
    assert _run(tree, baseline) == 0
    assert _run(tree, baseline, "--no-baseline") == 1


def test_unreadable_baseline_is_a_usage_error(tmp_path: Path) -> None:
    tree, baseline = _tree(tmp_path)
    baseline.write_text("not json", encoding="utf-8")
    assert _run(tree, baseline) == 2


def test_empty_baseline_has_nothing_to_report() -> None:
    baseline = Baseline()
    assert len(baseline) == 0
    assert not baseline.matches(_violation())
    assert baseline.stale_entries([]) == []
    assert baseline.unjustified_entries() == []
