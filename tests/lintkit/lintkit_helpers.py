"""Helpers shared by the repro-lint self-tests."""

from __future__ import annotations

import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

# The analyzer lives in tools/lintkit, outside the package; tools/lint_repro.py
# imports it from its own directory, the self-tests from the same place.
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

from lintkit.model import ProjectContext, Violation  # noqa: E402
from lintkit.registry import all_rules  # noqa: E402
from lintkit.runner import collect_files, run_rules  # noqa: E402


def lint_tree(root: Path, rule_ids: set[str] | None = None) -> list[Violation]:
    """Run the analyzer over a fixture tree, optionally filtered by rule id."""
    rules = all_rules()
    if rule_ids is not None:
        rules = [rule for rule in rules if rule.rule_id in rule_ids]
    project = ProjectContext(root=root, files=collect_files(root, [root / "src"]))
    return run_rules(project, rules)
