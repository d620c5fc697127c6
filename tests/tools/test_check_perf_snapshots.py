"""The perf ledger: every gated ``perf_baseline.json`` section must have a
committed ``BENCH_<name>.json`` snapshot (``tools/check_perf.py``)."""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest
from tool_loader import REPO_ROOT, load_tool

check_perf = load_tool("check_perf")

needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)


@pytest.fixture
def ledger(tmp_path: Path) -> tuple[Path, Path]:
    """A repository with two gated sections and passing fresh records."""
    repo, bench = tmp_path / "repo", tmp_path / "bench"
    repo.mkdir()
    bench.mkdir()
    baseline = repo / "perf_baseline.json"
    baseline.write_text(json.dumps({"_comment": "x", "batch": {"op": 1.0}, "rr": {"op": 1.0}}))
    for name in ("batch", "rr"):
        (bench / f"BENCH_{name}.json").write_text(
            json.dumps({"records": [{"op": "op", "speedup": 2.0}]})
        )
    return repo, bench


@needs_git
def test_untracked_snapshot_fails_the_gate(ledger):
    repo, bench = ledger
    _git(repo, "init", "-q")
    for name in ("batch", "rr"):
        (repo / f"BENCH_{name}.json").write_text("{}")
    _git(repo, "add", "BENCH_batch.json")
    baseline = repo / "perf_baseline.json"
    assert check_perf.untracked_snapshots(baseline, repo) == ["BENCH_rr.json"]
    assert check_perf.check(baseline, bench, repo_root=repo) == 1
    # --only does not narrow the ledger check: the snapshot is still missing.
    assert check_perf.check(baseline, bench, only=["batch"], repo_root=repo) == 1
    _git(repo, "add", "BENCH_rr.json")
    assert check_perf.untracked_snapshots(baseline, repo) == []
    assert check_perf.check(baseline, bench, repo_root=repo) == 0


def test_outside_a_work_tree_a_file_on_disk_counts(ledger):
    repo, bench = ledger
    (repo / "BENCH_batch.json").write_text("{}")
    baseline = repo / "perf_baseline.json"
    assert check_perf.untracked_snapshots(baseline, repo) == ["BENCH_rr.json"]
    (repo / "BENCH_rr.json").write_text("{}")
    assert check_perf.check(baseline, bench, repo_root=repo) == 0


def test_every_gated_section_of_this_repository_has_a_snapshot():
    baseline = REPO_ROOT / "benchmarks" / "perf_baseline.json"
    assert check_perf.untracked_snapshots(baseline, REPO_ROOT) == []
