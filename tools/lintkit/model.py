"""Core data model of the repro-lint analyzer.

The analyzer works on two objects:

* :class:`SourceFile` — one parsed Python file: raw text, split lines, a
  lazily built :mod:`ast` tree, and the per-line pragma index
  (``# repro-lint: allow[<rule>]`` comments, see
  :mod:`lintkit.pragmas`).
* :class:`ProjectContext` — the project being analyzed: its root directory,
  the selected files, and a cached loader so cross-file rules (cache-key
  completeness) can read companion files exactly once.

Everything here is pure stdlib so the analyzer stays importable in minimal
CI environments.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from lintkit.pragmas import parse_pragmas


@dataclass(frozen=True)
class Violation:
    """One rule finding, anchored to a source line.

    The ``snippet`` (whitespace-normalized source line) — not the line
    number — feeds the baseline fingerprint, so unrelated edits that shift
    a file do not invalidate baseline entries.
    """

    rule_id: str
    rule_name: str
    relpath: str
    line: int
    column: int
    message: str
    snippet: str

    def fingerprint(self) -> str:
        """Stable identity of this violation for the baseline file."""
        normalized = " ".join(self.snippet.split())
        payload = f"{self.rule_id}:{self.relpath}:{normalized}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        """One ``path:line:col: RLnnn[name] message`` report line."""
        return (
            f"{self.relpath}:{self.line}:{self.column}: "
            f"{self.rule_id}[{self.rule_name}] {self.message}"
        )


class SourceFile:
    """One Python file under analysis."""

    def __init__(self, path: Path, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()

    @cached_property
    def tree(self) -> ast.AST:
        """The parsed module (raises :class:`SyntaxError` on broken files —
        the runner reports that as a violation instead of crashing)."""
        return ast.parse(self.text, filename=self.relpath)

    @cached_property
    def pragmas(self) -> dict[int, frozenset[str]]:
        """Line number -> rule tokens allowed on that line."""
        return parse_pragmas(self.text)

    def line_text(self, line: int) -> str:
        """The 1-indexed source line (empty string out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def allows(self, line: int, tokens: frozenset[str]) -> bool:
        """Whether a pragma on ``line`` suppresses a rule identified by any
        of ``tokens`` (its id, its name, or the ``*`` wildcard)."""
        allowed = self.pragmas.get(line)
        if not allowed:
            return False
        return bool(allowed & tokens) or "*" in allowed


@dataclass
class ProjectContext:
    """The project being analyzed.

    Attributes
    ----------
    root:
        Project root; every reported path is relative to it.
    files:
        The selected files, in deterministic (sorted) order.
    """

    root: Path
    files: list[Path] = field(default_factory=list)
    _cache: dict[str, SourceFile | None] = field(default_factory=dict, repr=False)

    def relpath(self, path: Path) -> str:
        """POSIX-style path of ``path`` relative to the root (absolute when
        the file lies outside the root)."""
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.resolve().as_posix()

    def source(self, path: Path) -> SourceFile | None:
        """Load (and cache) ``path`` as a :class:`SourceFile`; None when the
        file does not exist or cannot be read."""
        relpath = self.relpath(path)
        if relpath not in self._cache:
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                self._cache[relpath] = None
            else:
                self._cache[relpath] = SourceFile(path, relpath, text)
        return self._cache[relpath]

    def source_at(self, relpath: str) -> SourceFile | None:
        """Load the project file at root-relative ``relpath`` (None when
        absent) — used by cross-file rules that read companion files
        regardless of the selected file set."""
        return self.source(self.root / relpath)
