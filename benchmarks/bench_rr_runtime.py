"""Benchmark: the streaming RR disguise runtime (ISSUE 10).

Three claims are measured and recorded into ``BENCH_rr_runtime.json``:

* **Kernel speedup.**  The searchsorted ``disguise_codes`` kernel vs the
  frozen ``(n, N)`` broadcast reference (``tests/oracles/disguise.py``) at
  ``n in {10, 32, 64, 100}``, N = 10^5 — plus the scale point N = 10^6.
  The committed acceptance bar is >= 3x at n = 64, N = 10^5 (gated through
  ``tools/check_perf.py --only rr_runtime``); outputs are checked
  bit-identical before any timing.
* **Peak auxiliary memory.**  tracemalloc peaks of both paths at n = 64,
  N = 10^5: the broadcast allocates the O(n*N) intermediate (~51 MB), the
  kernel stays O(N + n^2).
* **Streaming overhead.**  Chunked ``StreamingDisguiser`` vs one-shot
  ``randomize_codes`` on the same workload (bit-identical output, gated to
  stay within a bounded overhead), and the warm-start iteration savings of
  the ``OnlineEstimator`` vs cold per-chunk restarts (deterministic counts).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_rr_runtime.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_rr_runtime.py -q
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

try:
    from benchmarks.conftest import record_bench
except ImportError:  # standalone execution: benchmarks/ itself is sys.path[0]
    from conftest import record_bench

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.rr.randomize import RandomizedResponse, disguise_codes  # noqa: E402
from repro.rr.schemes import uniform_perturbation_matrix  # noqa: E402
from repro.rr.streaming import OnlineEstimator, StreamingDisguiser, iter_chunks  # noqa: E402
from repro.rr.matrix import random_rr_matrix  # noqa: E402
from tests.oracles.disguise import broadcast_disguise_reference  # noqa: E402

#: Domain sizes of the kernel sweep (the gated acceptance point is n=64).
DOMAIN_SIZES = (10, 32, 64, 100)
N_RECORDS = 100_000
#: Record count of the scale point (override to shrink a quick CI profile).
SCALE_RECORDS = int(os.environ.get("REPRO_BENCH_RR_SCALE_N", "1000000"))
GATE_N = 64
CHUNK_SIZE = 65_536
#: Required kernel speedup at (n=64, N=1e5).  Locally measured ~3.4x; CI can
#: relax via the environment variable so shared-runner noise cannot flake the
#: required gate (the committed perf_baseline.json bar is what CI enforces).
MIN_DISGUISE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_DISGUISE_SPEEDUP", "3.0"))


def _best_of(function, repeats: int = 7) -> float:
    """Best wall-clock time of ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _workload(n: int, count: int, seed: int = 42):
    rng = np.random.default_rng(seed)
    matrix = random_rr_matrix(n, seed=rng, diagonal_bias=2.0)
    codes = rng.integers(0, n, size=count)
    uniforms = rng.random(count)
    return matrix, codes, uniforms


def _tracemalloc_peak(function) -> int:
    """Peak bytes allocated while running ``function`` once."""
    tracemalloc.start()
    try:
        function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def measure_disguise_kernel(repeats: int = 7) -> dict[str, dict]:
    """Op -> record for the kernel-vs-frozen-broadcast sweep."""
    results: dict[str, dict] = {}
    points = [(n, N_RECORDS) for n in DOMAIN_SIZES]
    if SCALE_RECORDS > N_RECORDS:
        points.append((GATE_N, SCALE_RECORDS))
    for n, count in points:
        matrix, codes, uniforms = _workload(n, count)
        probabilities = matrix.probabilities
        kernel = functools.partial(disguise_codes, probabilities, codes, uniforms)
        reference = functools.partial(
            broadcast_disguise_reference, probabilities, codes, uniforms
        )

        # Equivalence guard: a speedup claim is meaningless unless the
        # kernel reproduces the frozen specification bit for bit.
        assert np.array_equal(kernel(), reference()), (
            f"disguise_codes is not bit-identical to the broadcast "
            f"reference at n={n}"
        )
        scale_repeats = repeats if count <= N_RECORDS else max(2, repeats // 3)
        seconds = _best_of(kernel, scale_repeats)
        reference_seconds = _best_of(reference, scale_repeats)
        record = {
            "params": {"n_categories": n, "n_records": count},
            "seconds": seconds,
            "reference_seconds": reference_seconds,
            "speedup": reference_seconds / seconds,
            "records_per_sec": count / seconds,
            "reference_records_per_sec": count / reference_seconds,
        }
        if n == GATE_N and count == N_RECORDS:
            # Peak-intermediate proof: the broadcast materialises the
            # (n, N) float64 intermediate; the kernel stays O(N + n^2).
            record["kernel_peak_bytes"] = _tracemalloc_peak(kernel)
            record["reference_peak_bytes"] = _tracemalloc_peak(reference)
            record["broadcast_intermediate_bytes"] = n * count * 8
        results[f"disguise[n={n},N={count}]"] = record
    return results


def measure_streaming(repeats: int = 5) -> dict[str, dict]:
    """Chunked streaming vs one-shot disguise on the same workload."""
    n = 32
    count = max(N_RECORDS, min(SCALE_RECORDS, 1_000_000))
    matrix, codes, _ = _workload(n, count, seed=7)
    mechanism = RandomizedResponse(matrix)

    def one_shot():
        return mechanism.randomize_codes(codes, seed=123)

    def streaming():
        disguiser = StreamingDisguiser(matrix, seed=123)
        return np.concatenate(
            [disguiser.disguise_chunk(chunk) for chunk in iter_chunks(codes, CHUNK_SIZE)]
        )

    assert np.array_equal(one_shot(), streaming()), (
        "chunked streaming output is not bit-identical to one-shot"
    )
    one_shot_seconds = _best_of(one_shot, repeats)
    streaming_seconds = _best_of(streaming, repeats)
    return {
        "streaming_overhead": {
            "params": {"n_categories": n, "n_records": count, "chunk_size": CHUNK_SIZE},
            "seconds": streaming_seconds,
            "reference_seconds": one_shot_seconds,
            # one-shot/streaming wall ratio: 1.0 == zero overhead; the
            # committed gate keeps the chunked path within bounded overhead.
            "speedup": one_shot_seconds / streaming_seconds,
            "records_per_sec": count / streaming_seconds,
            "reference_records_per_sec": count / one_shot_seconds,
        }
    }


def measure_warm_start() -> dict[str, dict]:
    """Warm-started online estimation vs cold per-chunk restarts.

    Deterministic iteration counts (no wall clock): the same disguised
    stream is folded chunk by chunk, once with the online estimator's warm
    start and once restarting from the uniform initial guess every chunk.
    """
    n = 16
    chunk_size = 16_384
    matrix = uniform_perturbation_matrix(n, 0.4)
    rng = np.random.default_rng(11)
    codes = rng.integers(0, n, size=200_000)
    disguised = RandomizedResponse(matrix).randomize_codes(codes, seed=13)

    warm = OnlineEstimator(matrix, method="iterative")
    for chunk in iter_chunks(disguised, chunk_size):
        warm.update(chunk)
    warm_iterations = sum(entry["n_iterations"] for entry in warm.diagnostics)

    cold_iterations = 0
    for index in range(len(warm.diagnostics)):
        cold = OnlineEstimator(matrix, method="iterative")
        prefix = disguised[: min((index + 1) * chunk_size, disguised.size)]
        cold_iterations += cold.update(prefix).n_iterations
    return {
        "warm_start_iterations": {
            "params": {
                "n_categories": n,
                "n_records": int(disguised.size),
                "chunk_size": chunk_size,
                "n_chunks": len(warm.diagnostics),
            },
            "seconds": 0.0,
            "speedup": cold_iterations / warm_iterations,
            "warm_iterations": warm_iterations,
            "cold_iterations": cold_iterations,
        }
    }


def _record(results: dict[str, dict]) -> None:
    for op, result in results.items():
        extra = {
            key: value
            for key, value in result.items()
            if key not in ("params", "seconds", "reference_seconds", "speedup")
        }
        record_bench(
            "rr_runtime",
            op,
            result["params"],
            result["seconds"],
            reference_seconds=result.get("reference_seconds"),
            speedup=result.get("speedup"),
            **extra,
        )


def _report(results: dict[str, dict]) -> None:
    for op, result in sorted(results.items()):
        line = f"{op:34s} {result['seconds'] * 1e3:9.2f} ms"
        if "reference_seconds" in result:
            line += f"  (reference {result['reference_seconds'] * 1e3:9.2f} ms)"
        line += f"  speedup {result['speedup']:5.2f}x"
        print(line)
    gate = results.get(f"disguise[n={GATE_N},N={N_RECORDS}]")
    if gate and "reference_peak_bytes" in gate:
        print(
            f"peak auxiliary bytes at n={GATE_N}, N={N_RECORDS}: "
            f"reference {gate['reference_peak_bytes'] / 1e6:.1f} MB "
            f"(broadcast intermediate "
            f"{gate['broadcast_intermediate_bytes'] / 1e6:.1f} MB), "
            f"kernel {gate['kernel_peak_bytes'] / 1e6:.1f} MB"
        )


def run_all() -> dict[str, dict]:
    results = {}
    results.update(measure_disguise_kernel())
    results.update(measure_streaming())
    results.update(measure_warm_start())
    _record(results)
    _report(results)
    return results


def test_rr_runtime_speedups():
    """The searchsorted kernel must clear the n=64, N=1e5 acceptance bar and
    the (n, N) broadcast intermediate must actually be gone."""
    results = run_all()
    gate = results[f"disguise[n={GATE_N},N={N_RECORDS}]"]
    assert gate["speedup"] >= MIN_DISGUISE_SPEEDUP, (
        f"disguise kernel speedup {gate['speedup']:.2f}x at n={GATE_N}, "
        f"N={N_RECORDS} is below the required {MIN_DISGUISE_SPEEDUP}x"
    )
    # O(N + n^2) proof: the kernel's peak must stay well below the (n, N)
    # broadcast intermediate alone (a loose 4x bound over the O(N) arrays it
    # legitimately allocates; the reference peaks above the full (n, N)).
    assert gate["kernel_peak_bytes"] < 8 * N_RECORDS * 8
    assert gate["reference_peak_bytes"] >= gate["broadcast_intermediate_bytes"]
    assert results["warm_start_iterations"]["speedup"] > 1.0


def main() -> None:
    run_all()


if __name__ == "__main__":
    main()
