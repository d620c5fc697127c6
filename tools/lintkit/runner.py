"""File collection, rule execution and reporting.

The entry point is ``tools/lint_repro.py``, which calls :func:`main`.

Execution order is fully deterministic: files are collected sorted, rules
run ordered by id, and violations are reported sorted by (path, line,
column, rule).  Exit codes: 0 clean, 1 violations/stale baseline, 2 usage
errors (unreadable baseline, bad paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from lintkit.baseline import Baseline, load_baseline, write_baseline
from lintkit.model import ProjectContext, Violation
from lintkit.registry import Rule, all_rules

#: Path roots scanned when no explicit paths are given (relative to --root).
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples", "tools")

#: Directory names never descended into.  ``lint_fixtures`` holds the rule
#: self-test fixtures — deliberately violating files that must not fail the
#: tree-wide run.
EXCLUDED_DIR_NAMES = frozenset({"__pycache__", "lint_fixtures", ".git", ".repro-lint"})

#: Default committed baseline location (relative to --root).
DEFAULT_BASELINE = "tools/repro_lint_baseline.json"


def collect_files(root: Path, paths: Sequence[Path]) -> list[Path]:
    """Every ``*.py`` file under ``paths``, sorted, excluded dirs pruned.

    Exclusion is relative to each search path: pointing the analyzer *at* a
    fixture tree works (its own self-tests do), while a tree-wide run never
    descends into one.
    """
    collected: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            collected.add(path.resolve())
            continue
        if not path.is_dir():
            continue
        for candidate in path.rglob("*.py"):
            relative_parts = candidate.relative_to(path).parts
            if EXCLUDED_DIR_NAMES.isdisjoint(relative_parts):
                collected.add(candidate.resolve())
    return sorted(collected)


def run_rules(
    project: ProjectContext, rules: Sequence[Rule] | None = None
) -> list[Violation]:
    """All violations of ``rules`` over ``project`` (pragmas applied,
    baseline not)."""
    if rules is None:
        rules = all_rules()
    violations: list[Violation] = []
    for rule in rules:
        found: list[Violation] = []
        for path in project.files:
            relpath = project.relpath(path)
            if not rule.applies_to(relpath):
                continue
            source = project.source(path)
            if source is None:
                continue
            try:
                source.tree
            except SyntaxError as error:
                # Reported once (by the first rule that reaches the file).
                if not any(v.relpath == relpath and v.rule_id == "RL000" for v in violations):
                    violations.append(
                        Violation(
                            rule_id="RL000",
                            rule_name="syntax-error",
                            relpath=relpath,
                            line=error.lineno or 1,
                            column=(error.offset or 1),
                            message=f"file does not parse: {error.msg}",
                            snippet=source.line_text(error.lineno or 1).strip(),
                        )
                    )
                continue
            found.extend(rule.check_file(source, project))
        found.extend(rule.check_project(project))
        tokens = rule.tokens()
        for violation in found:
            source = project.source_at(violation.relpath)
            if source is not None and source.allows(violation.line, tokens):
                continue
            violations.append(violation)
    violations.sort(key=lambda v: (v.relpath, v.line, v.column, v.rule_id))
    return violations


def run_from_args(
    args: argparse.Namespace, *, out: Callable[[str], None] | None = None
) -> int:
    """Execute a repro-lint run for parsed ``args``; returns the exit code."""
    echo = out if out is not None else lambda line: print(line)
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            echo(f"{rule.rule_id}  {rule.name:24s} {rule.description}")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"repro-lint: error: --root {args.root!r} is not a directory", file=sys.stderr)
        return 2
    if args.paths:
        paths = [Path(raw) if Path(raw).is_absolute() else root / raw for raw in args.paths]
        missing = [str(path) for path in paths if not path.exists()]
        if missing:
            print(
                f"repro-lint: error: path(s) do not exist: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 2
    else:
        paths = [root / name for name in DEFAULT_ROOTS]

    baseline_path = (
        Path(args.baseline).resolve()
        if args.baseline is not None
        else root / DEFAULT_BASELINE
    )
    try:
        baseline = Baseline() if args.no_baseline else load_baseline(baseline_path)
    except (ValueError, OSError) as error:
        print(f"repro-lint: error: unreadable baseline: {error}", file=sys.stderr)
        return 2

    project = ProjectContext(root=root, files=collect_files(root, paths))
    violations = run_rules(project, rules)

    if args.write_baseline:
        write_baseline(baseline_path, violations)
        echo(
            f"repro-lint: wrote {len(violations)} entr"
            f"{'y' if len(violations) == 1 else 'ies'} to {baseline_path}"
            + (" — fill in every justification" if violations else "")
        )
        return 0

    failures = 0
    fresh = [violation for violation in violations if not baseline.matches(violation)]
    for violation in fresh:
        echo(violation.format())
    failures += len(fresh)

    if not args.no_baseline:
        for entry in baseline.stale_entries(violations):
            echo(
                f"{entry.relpath}: stale baseline entry {entry.fingerprint} "
                f"({entry.rule_id}): the violation is gone — delete the entry"
            )
            failures += 1
        for entry in baseline.unjustified_entries():
            echo(
                f"{entry.relpath}: baseline entry {entry.fingerprint} "
                f"({entry.rule_id}) has no justification"
            )
            failures += 1
        if args.forbid_baseline and len(baseline):
            echo(
                f"repro-lint: baseline holds {len(baseline)} entr"
                f"{'y' if len(baseline) == 1 else 'ies'} but --forbid-baseline "
                f"is set: fix the violations or argue the entries in review"
            )
            failures += len(baseline)

    suppressed = len(violations) - len(fresh)
    summary = (
        f"repro-lint: {len(project.files)} file(s), {len(rules)} rule(s): "
        f"{len(fresh)} violation(s)"
    )
    if suppressed:
        summary += f", {suppressed} baselined"
    echo(summary)
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Command-line entry point of ``tools/lint_repro.py``."""
    parser = argparse.ArgumentParser(
        prog="lint_repro",
        description="repro-lint: AST invariant analyzer for determinism, "
                    "checkpoint symmetry and cache-key completeness",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to analyze (default: {' '.join(DEFAULT_ROOTS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot the current violations into the baseline file and exit 0",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file: report every violation",
    )
    parser.add_argument(
        "--forbid-baseline",
        action="store_true",
        help="fail when the baseline contains any entry (CI mode: new "
             "baseline entries must be argued in review, not committed "
             "silently)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the registered rules and exit"
    )
    return run_from_args(parser.parse_args(argv))
