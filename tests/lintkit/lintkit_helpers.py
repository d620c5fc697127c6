"""Helpers shared by the repro-lint self-tests."""

from __future__ import annotations

from pathlib import Path

from repro.lintkit.model import ProjectContext, Violation
from repro.lintkit.registry import all_rules
from repro.lintkit.runner import collect_files, run_rules

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_tree(root: Path, rule_ids: set[str] | None = None) -> list[Violation]:
    """Run the analyzer over a fixture tree, optionally filtered by rule id."""
    rules = all_rules()
    if rule_ids is not None:
        rules = [rule for rule in rules if rule.rule_id in rule_ids]
    project = ProjectContext(root=root, files=collect_files(root, [root / "src"]))
    return run_rules(project, rules)
