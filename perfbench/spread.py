"""Seed-to-seed steadiness of the end-to-end metrics.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload optimize-n64 --seeds 0-9 --seconds 20

Runs ``perfbench/run.py --trace 0`` once per seed, one after another, and
prints for each end-to-end metric its median over the seeds and its spread:
the distance between the first and third quartile (``statistics.quantiles``,
``n=4``) as a share of the median, next to the bound in ``BENCHMARK.json``.
A benchmark is steady when every spread is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from perfbench.stats import relative_spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"0-9"`` or ``"1,4,7"``."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{key}={item['value']:.5g}" for key, item in result["metrics"].items()),
              flush=True)
        for key, item in result["metrics"].items():
            values.setdefault(key, []).append(item["value"])
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>7}  steady (< bound/3)")
    for key, series in values.items():
        spread = relative_spread(series)
        bound = bounds.get(key, float("nan"))
        print(f"{key:<14} {statistics.median(series):>12.5g} {spread:>8.4f} {bound:>7.3f}  "
              f"{'yes' if spread < bound / 3 else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
