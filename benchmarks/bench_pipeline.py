"""Benchmark: pipeline determinism and throughput across workers and cache.

The downstream-mining pipeline fans ``(scheme, seed, miner)`` cells out over
a process pool with a content-addressed cell cache.  Its acceptance property
is **byte-determinism**: the same spec must produce byte-identical aggregate
documents serially, in parallel, and from a warm cache.  This benchmark
asserts that everywhere, measures the parallel speedup on multi-core hosts
(the cells are independent CPU-bound mining jobs), and measures the
cache-replay speedup, which does not depend on core count.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_pipeline.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline.py -q -s
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

try:
    from benchmarks.conftest import record_bench
except ImportError:  # standalone execution: benchmarks/ itself is sys.path[0]
    from conftest import record_bench

from repro.pipeline import runner as pipeline_runner
from repro.pipeline.runner import run_pipeline
from repro.pipeline.spec import plan_pipeline

#: The pipeline workload: four disguise strengths, three miners, two seeds.
DATA = "adult:education"
SCHEMES = ("warner:0.9", "warner:0.7", "warner:0.45", "warner:0.2")
MINERS = ("tree", "rules", "distribution")
N_SEEDS = 2
N_RECORDS = 12_000
#: Records per cell of the parallel-speedup workload only.  Every cell runs
#: in its own worker process, so cells must carry enough mining work that
#: process start-up is a small share of the serial time: at 12 000 records
#: the serial grid took 0.08 s and 4 workers 0.34 s on 2 vCPUs.
SCALING_RECORDS = 400_000
N_JOBS = 4

#: Required parallel speedup at 4 workers on a >= 4-core host; scaled down
#: automatically on smaller hosts (a pool cannot beat physics).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _spec(n_records: int = N_RECORDS):
    return plan_pipeline(
        DATA, schemes=list(SCHEMES), miners=list(MINERS),
        seeds=range(N_SEEDS), n_records=n_records,
    )


def measure_pipeline_scaling() -> dict:
    """Time a cold serial pipeline against a cold 4-worker pipeline on the
    larger scaling workload.

    Each parallel cell runs in a process forked after the serial run, so it
    inherits that run's disguise memo (4 schemes x 2 seeds fill its 8 slots)
    and only mines; the serial time includes building and disguising the 8
    workloads once.
    """
    spec = _spec(SCALING_RECORDS)

    start = time.perf_counter()
    serial = run_pipeline(spec, n_jobs=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_pipeline(spec, n_jobs=N_JOBS)
    parallel_seconds = time.perf_counter() - start

    # The speedup claim is meaningless unless both runs agree byte-for-byte.
    assert parallel.aggregate_json() == serial.aggregate_json()
    return {
        "n_cells": len(spec.tasks()),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
    }


def _record_scaling(result: dict) -> None:
    record_bench(
        "pipeline",
        "parallel_workers",
        {
            "schemes": len(SCHEMES), "miners": len(MINERS), "seeds": N_SEEDS,
            "jobs": N_JOBS, "records": SCALING_RECORDS,
        },
        result["parallel_seconds"],
        reference_seconds=result["serial_seconds"],
    )


def _record_replay(result: dict) -> None:
    record_bench(
        "pipeline",
        "cache_replay",
        {"schemes": len(SCHEMES), "miners": len(MINERS), "seeds": N_SEEDS},
        result["warm_seconds"],
        reference_seconds=result["cold_seconds"],
    )


def measure_cache_replay() -> dict:
    """Time a cold pipeline against a fully-cached replay."""
    spec = _spec()
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        cold = run_pipeline(spec, n_jobs=1, cache_dir=cache_dir)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = run_pipeline(spec, n_jobs=1, cache_dir=cache_dir)
        warm_seconds = time.perf_counter() - start

    assert warm.n_cache_hits == len(spec.tasks())
    assert warm.aggregate_json() == cold.aggregate_json()
    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
    }


class _NoStoreMemo(dict):
    """Memo stand-in that never retains entries (disables the disguise memo)."""

    def __setitem__(self, key, value):  # pragma: no cover - trivial
        pass


def measure_disguise_memo() -> dict:
    """Time a serial run with the per-worker disguise memo disabled vs enabled.

    The grid shares one disguise stream per (scheme, seed) across all miners,
    so the memo skips ``(miners - 1) / miners`` of the disguise work.  Both
    runs must stay byte-identical — the memo is a pure lookup keyed on the
    full disguise inputs.
    """
    spec = _spec()
    original = pipeline_runner._DISGUISE_MEMO
    try:
        pipeline_runner._DISGUISE_MEMO = _NoStoreMemo()
        start = time.perf_counter()
        unmemoized = run_pipeline(spec, n_jobs=1)
        unmemoized_seconds = time.perf_counter() - start

        memo: dict = {}
        pipeline_runner._DISGUISE_MEMO = memo
        start = time.perf_counter()
        memoized = run_pipeline(spec, n_jobs=1)
        memoized_seconds = time.perf_counter() - start
    finally:
        pipeline_runner._DISGUISE_MEMO = original

    assert memoized.aggregate_json() == unmemoized.aggregate_json()
    n_cells = len(spec.tasks())
    unique = len(SCHEMES) * N_SEEDS
    assert len(memo) == unique  # one memo entry per distinct disguise stream
    return {
        "n_cells": n_cells,
        "unmemoized_seconds": unmemoized_seconds,
        "memoized_seconds": memoized_seconds,
        "speedup": unmemoized_seconds / memoized_seconds,
        "redundant_disguises_skipped": n_cells - unique,
    }


def _record_memo(result: dict) -> None:
    record_bench(
        "pipeline",
        "disguise_memo",
        {"schemes": len(SCHEMES), "miners": len(MINERS), "seeds": N_SEEDS},
        result["memoized_seconds"],
        reference_seconds=result["unmemoized_seconds"],
        redundant_disguises_skipped=result["redundant_disguises_skipped"],
    )


def test_pipeline_disguise_memo_saves_redundant_work():
    """The per-worker memo must skip every redundant disguise while keeping
    the aggregate byte-identical (asserted inside the measurement)."""
    result = measure_disguise_memo()
    _record_memo(result)
    print(
        f"\npipeline disguise memo: unmemoized {result['unmemoized_seconds']:.2f} s, "
        f"memoized {result['memoized_seconds']:.2f} s, "
        f"{result['redundant_disguises_skipped']} redundant disguises skipped"
    )
    assert result["redundant_disguises_skipped"] == len(SCHEMES) * N_SEEDS * (len(MINERS) - 1)


def test_pipeline_byte_determinism_across_jobs_and_cache():
    """The acceptance smoke: byte-identical aggregates across worker counts
    and warm/cold cache states (asserted inside both measurements)."""
    scaling_free_spec = _spec()
    serial = run_pipeline(scaling_free_spec, n_jobs=1)
    parallel = run_pipeline(scaling_free_spec, n_jobs=2)
    assert parallel.aggregate_json() == serial.aggregate_json()
    replay = measure_cache_replay()
    _record_replay(replay)
    print(
        f"\npipeline cache replay: cold {replay['cold_seconds']:.2f} s, "
        f"warm {replay['warm_seconds']:.2f} s, speedup {replay['speedup']:.1f}x"
    )
    assert replay["speedup"] >= 3.0


def test_pipeline_parallel_speedup():
    """A cold 4-worker pipeline must beat the serial run on multi-core hosts
    (bar scaled by available cores, skipped on single-core ones)."""
    cores = _usable_cores()
    if cores < 2:
        pytest.skip(f"host exposes {cores} usable core(s); parallel speedup not measurable")
    result = measure_pipeline_scaling()
    _record_scaling(result)
    print(
        f"\npipeline scaling ({len(SCHEMES)} schemes x {N_SEEDS} seeds x "
        f"{len(MINERS)} miners = {result['n_cells']} cells, "
        f"{SCALING_RECORDS} records): "
        f"serial {result['serial_seconds']:.2f} s, {N_JOBS} workers "
        f"{result['parallel_seconds']:.2f} s, speedup {result['speedup']:.2f}x"
    )
    required = MIN_SPEEDUP * min(1.0, (cores / float(N_JOBS)))
    assert result["speedup"] >= required, (
        f"pipeline speedup {result['speedup']:.2f}x at {N_JOBS} workers on "
        f"{cores} cores is below the required {required:.2f}x"
    )


def main() -> None:
    scaling = measure_pipeline_scaling()
    _record_scaling(scaling)
    print(
        f"pipeline scaling   cells={scaling['n_cells']}  "
        f"serial={scaling['serial_seconds']:6.2f} s  "
        f"jobs={N_JOBS}: {scaling['parallel_seconds']:6.2f} s  "
        f"speedup={scaling['speedup']:5.2f}x  "
        f"(usable cores: {_usable_cores()})"
    )
    replay = measure_cache_replay()
    _record_replay(replay)
    print(
        f"pipeline cache     cold={replay['cold_seconds']:6.2f} s  "
        f"warm={replay['warm_seconds']:6.2f} s  speedup={replay['speedup']:5.1f}x"
    )
    memo = measure_disguise_memo()
    _record_memo(memo)
    print(
        f"pipeline memo      unmemoized={memo['unmemoized_seconds']:6.2f} s  "
        f"memoized={memo['memoized_seconds']:6.2f} s  "
        f"skipped={memo['redundant_disguises_skipped']} redundant disguises"
    )


if __name__ == "__main__":
    main()
