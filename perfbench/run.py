"""The repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Each repetition runs the real CLI (``repro.cli.main(argv)``) in a fresh
interpreter (``perfbench/child.py``) with fresh output, checkpoint and cache
paths, one repetition at a time (a closed loop with one client).  The run
repeats until ``--seconds`` have passed and at least a few repetitions
completed, checks every repetition's outputs, and prints a report followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, the tracing overhead and the trace
coverage; the output digests of both kinds must agree.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: BLAS threads of every repetition (at most nproc on any host).
THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Repetitions an untraced run completes at least; pairs a traced run does.
MIN_REPETITIONS = 3
MIN_PAIRS = 2
#: No repetition starts after this many seconds, whatever ``--seconds`` says,
#: and a repetition still running after the timeout is killed and counts as
#: failed: together they keep a whole run under three minutes.
START_LIMIT_S = 90.0
REPETITION_TIMEOUT_S = 40.0

#: Temporary files of a run live here, inside the checkout.
WORK_ROOT = ROOT / ".perfbench_work"


@dataclass
class Repetition:
    """What one repetition measured and what its checks found."""

    traced: bool
    wall_s: float
    peak_rss_mb: float
    setup_s: float | None = None
    failure: str | None = None
    digest: str | None = None
    work_units: float = 0.0
    quality: float = 0.0
    trace: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None


def _environment() -> dict[str, Any]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def run_repetition(workload, context: dict[str, Any], rep_dir: Path, traced: bool) -> Repetition:
    """Run one repetition in a fresh interpreter and check its outputs."""
    from perfbench.tracing import self_time_by_name
    from perfbench.workloads import CheckFailed

    rep_dir.mkdir(parents=True)
    observed_path = rep_dir / "observed.json"
    spec_path = rep_dir / "spec.json"
    spec = {
        "root": str(ROOT),
        "argv": workload.argv(context, rep_dir),
        "traced": traced,
        "probe": workload.probe,
        "result": str(observed_path),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    command = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec_path)]
    with open(rep_dir / "stderr.txt", "wb") as stderr:
        start = time.monotonic()
        process = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=stderr, cwd=ROOT)
        try:
            exit_code = process.wait(timeout=REPETITION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            exit_code = None
        finally:
            # Also on an interrupt of this process: no repetition outlives it.
            if process.poll() is None:
                process.kill()
                process.wait()
        wall_s = time.monotonic() - start
    try:
        observed = json.loads(observed_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        observed = {}
    rep = Repetition(traced, wall_s, observed.get("peak_rss_kb", 0) / 1024.0)
    if exit_code is None:
        rep.failure = f"killed after {REPETITION_TIMEOUT_S:g} s"
        return rep
    if exit_code != 0:
        tail = (rep_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        rep.failure = f"exit code {exit_code}: {tail.strip()[-400:]}"
        return rep
    if "first_work" in observed.get("marks", {}):
        rep.setup_s = observed["marks"]["first_work"] - start
    elif not traced:
        rep.failure = "the set-up probe never fired"
        return rep
    try:
        outcome = workload.outcome(rep_dir, context)
    except CheckFailed as exc:
        rep.failure = f"output check failed: {exc}"
        return rep
    rep.digest, rep.work_units, rep.quality = outcome.digest, outcome.work_units, outcome.quality
    if traced:
        spans = observed["spans"]
        rep.trace = {"spans": spans, "counters": observed["counters"],
                     "self_times": self_time_by_name(spans), "wall_s": wall_s,
                     "workload": workload.name}
    return rep


def run_workload(name: str, seed: int, seconds: float, traced_run: bool) -> list[Repetition]:
    """All repetitions of one run of workload ``name``."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    work_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    reps: list[Repetition] = []
    try:
        context = workload.context(work_dir, seed)
        # One discarded repetition first, so file caches and lazily
        # initialised state of the host do not land on the first sample.
        run_repetition(workload, context, work_dir / "warm-up", traced=False)
        shutil.rmtree(work_dir / "warm-up", ignore_errors=True)
        started = time.monotonic()
        while True:
            traced = traced_run and len(reps) % 2 == 1
            rep_dir = work_dir / f"rep-{len(reps)}"
            reps.append(run_repetition(workload, context, rep_dir, traced))
            shutil.rmtree(rep_dir, ignore_errors=True)
            elapsed = time.monotonic() - started
            enough = (
                len(reps) >= 2 * MIN_PAIRS and len(reps) % 2 == 0
                if traced_run
                else len(reps) >= MIN_REPETITIONS
            )
            if (enough and elapsed >= seconds) or elapsed >= START_LIMIT_S:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    _check_digests(reps)
    return reps


def _check_digests(reps: list[Repetition]) -> None:
    """Every checked repetition of one seed must write identical outputs."""
    reference = next((rep.digest for rep in reps if rep.ok), None)
    for rep in reps:
        if rep.ok and rep.digest != reference:
            rep.failure = f"output digest {rep.digest[:12]} differs from {reference[:12]}"


def _line(name: str, value: float, unit: str, samples: list[float] | None = None) -> str:
    from perfbench import stats

    text = f"  {name:<42} {value:>14.6g} {unit}"
    if samples is not None:
        summary = stats.describe(samples)
        text += f"  (median of n={summary['count']}"
        if summary["tail"] is not None:
            text += f", {summary['tail']}={summary['tail_value']:.6g}"
        text += ")"
    return text


def end_to_end(name: str, reps: list[Repetition]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from the untraced repetitions, with the report."""
    from perfbench import stats
    from perfbench.workloads import DEFINITIONS

    plain = [rep for rep in reps if rep.ok and not rep.traced]
    definition = DEFINITIONS["workloads"][name]
    unit = {"evaluations": "evals_per_s", "records": "records_per_s", "cells": "cells_per_s"}
    samples = {
        "wall_s": [rep.wall_s for rep in plain],
        "setup_s": [rep.setup_s for rep in plain],
        "peak_rss_mb": [rep.peak_rss_mb for rep in plain],
        "work_per_s": [rep.work_units / rep.wall_s for rep in plain],
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
    metrics = {key: (stats.median(values), units[key]) for key, values in samples.items()}
    for key, values in samples.items():
        print(_line(key, metrics[key][0], units[key], values))
    print(_line(unit[definition["work_unit"]], metrics["work_per_s"][0], "1/s",
                samples["work_per_s"]))
    quality = [rep.quality for rep in plain]
    quality_unit = DEFINITIONS["quality"][definition["quality"]]["unit"]
    print(_line(definition["quality"], stats.median(quality), quality_unit, quality))
    failed = sum(not rep.ok for rep in reps)
    print(_line("error_rate", failed / len(reps), "ratio")
          + f"  ({failed} of {len(reps)} repetitions failed)")
    return metrics


def per_layer(name: str, reps: list[Repetition]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced repetitions, with the report."""
    from perfbench import stats
    from perfbench.layers import LAYER_METRICS
    from perfbench.tracing import durations
    from perfbench.workloads import DEFINITIONS

    traced = [rep.trace for rep in reps if rep.ok and rep.traced]
    plain_walls = [rep.wall_s for rep in reps if rep.ok and not rep.traced]
    traced_walls = [rep.wall_s for rep in reps if rep.ok and rep.traced]
    metrics = {metric.name: (metric.value(traced), metric.unit) for metric in LAYER_METRICS}
    metrics["trace.overhead_s"] = (stats.median(traced_walls) - stats.median(plain_walls), "s")
    own = DEFINITIONS["workloads"][name]["quality"]
    quality = stats.median([rep.quality for rep in reps if rep.ok and rep.traced])
    for key, about in DEFINITIONS["quality"].items():
        metrics[f"quality.{key}"] = (quality if key == own else 0.0, about["unit"])
    print(f"  traced repetitions: {len(traced)}, untraced: {len(plain_walls)}; a metric "
          f"of a layer this workload does not run reads 0")
    for key, (value, unit) in metrics.items():
        print(_line(key, value, unit))
    for span in ("emoo.driver.step", "rr.streaming.disguise_chunk"):
        calls = sum(len(durations(rep["spans"], span)) for rep in traced)
        tail = stats.tail_percentile(calls)
        print(f"  per-call percentiles of {span}: n={calls}, highest supported "
              f"percentile {'p' + tail if tail else 'none (median only)'}")
    print("  self time by span (median over traced repetitions, share of wall_s):")
    wall = stats.median(traced_walls)
    names = sorted({span for rep in traced for span in rep["self_times"]})
    shares = {
        span: stats.median([rep["self_times"].get(span, 0.0) for rep in traced])
        for span in names
    }
    for span, value in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"    {span:<48} {value:>10.4f} s  {100.0 * value / wall:5.1f}%")
    return metrics


def report(name: str, seed: int, seconds: float, traced_run: bool) -> dict[str, Any] | None:
    """Run and report one workload; ``None`` when no repetition succeeded."""
    reps = run_workload(name, seed, seconds, traced_run)
    failed = [rep for rep in reps if not rep.ok]
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(traced_run)}")
    digests = sorted({rep.digest for rep in reps if rep.ok})
    print(f"  repetitions: {len(reps)} attempted, {len(failed)} failed; output digest "
          f"{', '.join(digest[:16] for digest in digests) or 'none'}")
    for rep in failed:
        print(f"  FAILED ({'traced' if rep.traced else 'untraced'}): {rep.failure}")
    print("  wall_s/setup_s per repetition (T traced): " + " ".join(
        f"{rep.wall_s:.3f}/{rep.setup_s or 0.0:.3f}{'T' if rep.traced else ''}" for rep in reps))
    kinds_ok = {rep.traced for rep in reps if rep.ok}
    if False not in kinds_ok or (traced_run and True not in kinds_ok):
        return None
    metrics = per_layer(name, reps) if traced_run else end_to_end(name, reps)
    return {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds positive", file=sys.stderr)
        return 2
    # A terminated run still stops its repetition and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for variable in THREAD_VARIABLES:
        os.environ[variable] = THREADS
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; known: all, "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # Compile the sources once so no repetition pays for writing bytecode.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    environment = _environment()
    print("environment: " + json.dumps(environment, sort_keys=True))
    results = {}
    for name in names:
        result = report(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"perfbench: every repetition of {name} failed", file=sys.stderr)
            return 1
        results[name] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {f"{name}.{key}": value for name, result in results.items()
                        for key, value in result["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
