"""The entry point and the self-gate: ``tools/lint_repro.py``, the real tree
staying clean, and the cache-key acceptance check."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lintkit_helpers import REPO_ROOT, lint_tree

from lintkit.runner import main as runner_main

MATERIALIZATION_LINE = '"population_size": default_population(),'


def test_list_rules_prints_all_five(capsys: pytest.CaptureFixture[str]) -> None:
    assert runner_main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005"):
        assert rule_id in output


def test_missing_path_is_a_usage_error(tmp_path: Path) -> None:
    assert runner_main(["--root", str(tmp_path), "no/such/dir"]) == 2


def test_bad_root_is_a_usage_error(tmp_path: Path) -> None:
    assert runner_main(["--root", str(tmp_path / "missing")]) == 2


def test_tools_wrapper_runs_without_pythonpath(tmp_path: Path) -> None:
    # The wrapper finds tools/lintkit on its own, without PYTHONPATH.
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint_repro.py"), "--list-rules"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "RL005" in result.stdout


def test_real_tree_is_clean() -> None:
    """The self-gate: the repository must pass its own analyzer.

    Mirrors the CI invocation (default roots, committed baseline,
    --forbid-baseline).
    """
    assert runner_main(["--root", str(REPO_ROOT), "--forbid-baseline"]) == 0


def test_committed_baseline_is_empty() -> None:
    import json

    document = json.loads(
        (REPO_ROOT / "tools" / "repro_lint_baseline.json").read_text(encoding="utf-8")
    )
    assert document == {"entries": [], "version": 1}


def _copy_real_pair(tmp_path: Path) -> Path:
    """A tmp tree holding copies of the real config + materialization files."""
    for relpath in ("src/repro/core/config.py", "src/repro/experiments/base.py"):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / relpath, target)
    return tmp_path


def test_cache_key_rule_passes_on_real_files(tmp_path: Path) -> None:
    tree = _copy_real_pair(tmp_path)
    assert lint_tree(tree, {"RL004"}) == []


def test_cache_key_rule_catches_dropped_materialization(tmp_path: Path) -> None:
    """Deleting the population_size materialization from
    experiments/base.py must make RL004 fire."""
    tree = _copy_real_pair(tmp_path)
    base = tree / "src" / "repro" / "experiments" / "base.py"
    needle = MATERIALIZATION_LINE.replace(" ", "")
    lines = [
        line
        for line in base.read_text(encoding="utf-8").splitlines(keepends=True)
        if needle not in line.replace(" ", "")
    ]
    base.write_text("".join(lines), encoding="utf-8")
    assert needle not in base.read_text(encoding="utf-8").replace(" ", "")

    violations = lint_tree(tree, {"RL004"})
    assert violations, "RL004 must fire when the materialization line is deleted"
    assert all(violation.rule_id == "RL004" for violation in violations)
    assert any("population_size" in violation.message for violation in violations)
