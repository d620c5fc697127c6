#!/usr/bin/env python
"""Perf-regression gate over the emitted ``BENCH_<name>.json`` trajectory.

Every benchmark writes a machine-readable ``BENCH_<name>.json`` (schema in
``docs/benchmarks.md``).  This checker compares the ``speedup`` field of the
freshly emitted records against the committed thresholds in
``benchmarks/perf_baseline.json`` and fails when any tracked op regresses
below its bar — the CI perf job runs the quick benchmark profiles first and
then this script.

Usage (from the repository root, after running the benchmarks)::

    python tools/check_perf.py [--baseline benchmarks/perf_baseline.json]
                               [--bench-dir .]

Exit code 0 when every tracked op meets its threshold, 1 otherwise (missing
BENCH files or ops count as failures: a benchmark that silently stopped
emitting must not turn the gate green).  It is also 1 when a baseline
section has no ``BENCH_<name>.json`` snapshot committed at the repository
root, so the ledger documents every gated number.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: The checkout whose committed ``BENCH_<name>.json`` snapshots form the ledger.
REPO_ROOT = Path(__file__).resolve().parent.parent


def load_records(bench_dir: Path, name: str) -> dict[str, dict]:
    """Op -> record mapping of one BENCH_<name>.json file (empty if absent)."""
    path = bench_dir / f"BENCH_{name}.json"
    if not path.is_file():
        return {}
    document = json.loads(path.read_text())
    return {record["op"]: record for record in document.get("records", [])}


def untracked_snapshots(baseline_path: Path, repo_root: Path) -> list[str]:
    """``BENCH_<name>.json`` files of gated sections that ``repo_root`` does
    not track.

    Tracked means listed by ``git ls-files``; outside a git work tree (an
    exported source tree) a file on disk counts.
    """
    baseline = json.loads(baseline_path.read_text())
    names = [f"BENCH_{name}.json" for name in baseline if not name.startswith("_")]
    try:
        tracked = set(
            subprocess.run(
                ["git", "ls-files", "--", *names],
                cwd=repo_root, capture_output=True, text=True, check=True,
            ).stdout.split()
        )
    except (OSError, subprocess.CalledProcessError):
        tracked = {name for name in names if (repo_root / name).is_file()}
    return [name for name in names if name not in tracked]


def check(
    baseline_path: Path,
    bench_dir: Path,
    only: list[str] | None = None,
    repo_root: Path | None = None,
) -> int:
    """Gate the records in ``bench_dir``; with ``repo_root``, also require a
    committed snapshot for every baseline section (whatever ``only`` says)."""
    baseline = json.loads(baseline_path.read_text())
    failures: list[str] = []
    if repo_root is not None:
        failures.extend(
            f"{name}: no committed snapshot at the repository root"
            for name in untracked_snapshots(baseline_path, repo_root)
        )
    print(f"perf gate: thresholds from {baseline_path}, records from {bench_dir}/")
    if only:
        unknown = sorted(set(only) - set(baseline))
        if unknown:
            print(
                f"perf gate FAILED: unknown --only section(s) {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 1
    for name, thresholds in baseline.items():
        if name.startswith("_"):
            continue
        if only and name not in only:
            continue
        records = load_records(bench_dir, name)
        if not records:
            failures.append(f"BENCH_{name}.json is missing or empty")
            continue
        for op, minimum in thresholds.items():
            record = records.get(op)
            if record is None:
                failures.append(f"{name}:{op}: no record emitted")
                continue
            speedup = record.get("speedup")
            if speedup is None:
                failures.append(f"{name}:{op}: record has no speedup field")
                continue
            verdict = "ok" if speedup >= minimum else "REGRESSION"
            print(
                f"  {name}:{op:24s} speedup {speedup:6.2f}x  "
                f"(required >= {minimum:.2f}x)  {verdict}"
            )
            if speedup < minimum:
                failures.append(
                    f"{name}:{op}: speedup {speedup:.2f}x below required {minimum:.2f}x"
                )
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/perf_baseline.json"),
        help="committed threshold file (default: benchmarks/perf_baseline.json)",
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path("."),
        help="directory holding the emitted BENCH_<name>.json files (default: .)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="check only this baseline section (repeatable); other sections' "
             "BENCH files need not exist — used by CI jobs that run a single "
             "benchmark",
    )
    arguments = parser.parse_args()
    return check(
        arguments.baseline, arguments.bench_dir, only=arguments.only, repo_root=REPO_ROOT
    )


if __name__ == "__main__":
    raise SystemExit(main())
