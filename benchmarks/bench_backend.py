"""Benchmark: production batch evaluation vs the frozen reference kernel.

``MatrixEvaluator.evaluate_batch`` runs over a ``(B=200, n=32)`` stack next
to the frozen reference evaluation body in ``tests/oracles/kernels.py``
(``slogdet`` screen before inversion, posterior-tensor maximum, Theorem-6
closed form over fancy-index subset copies).  The production path must clear
the committed >= 1.5x bar — the measured win of inverting the whole stack in
one call, taking the worst posterior from row bounds and running the closed
form over the full stack — and the perf gate
(``tools/check_perf.py --only backend``) holds it there.

Before any timing the production columns are checked against the oracle bit
for bit: a speedup claim is meaningless if the two compute different
answers.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_backend.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend.py -q
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.conftest import record_bench
except ImportError:  # standalone execution: benchmarks/ itself is sys.path[0]
    from conftest import record_bench

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.data.synthetic import normal_distribution  # noqa: E402
from repro.metrics.evaluation import MatrixEvaluator  # noqa: E402
from repro.rr.matrix import random_rr_matrix, stack_matrices  # noqa: E402
from repro.utils.linalg import DEFAULT_CONDITION_LIMIT  # noqa: E402
from tests.oracles import kernels as oracle  # noqa: E402

N_CATEGORIES = 32
BATCH = 200
N_RECORDS = 10_000
DELTA = 0.8
#: Required production speedup over the frozen oracle.  Locally measured
#: ~1.8x at this shape; CI can relax via the environment variable so timing
#: noise on shared runners cannot flake a required gate.
MIN_BACKEND_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_BACKEND_SPEEDUP", "1.5"))

#: Op name of the gated record in ``BENCH_backend.json``.
OP = "evaluate_batch[vs-oracle]"


def _stack(n: int, batch: int) -> np.ndarray:
    rng = np.random.default_rng(42)
    return stack_matrices(
        [
            random_rr_matrix(n, seed=rng, diagonal_bias=float(index % 3) * 2.0)
            for index in range(batch)
        ]
    )


def _best_of(function, repeats: int = 7) -> float:
    """Best wall-clock time of ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def measure_evaluation(
    n: int = N_CATEGORIES, batch: int = BATCH, repeats: int = 7
) -> dict[str, float]:
    """Timing record for evaluate_batch at (batch, n, n) against the oracle."""
    prior = normal_distribution(n)
    evaluator = MatrixEvaluator(prior, N_RECORDS, delta=DELTA)
    stack = _stack(n, batch)

    def run():
        return evaluator.evaluate_batch(stack)

    def run_oracle():
        return oracle.evaluate_stack(
            stack,
            prior.probabilities,
            N_RECORDS,
            condition_limit=DEFAULT_CONDITION_LIMIT,
            cheap_posterior_bound=False,
        )

    measured = run()
    privacy, utility, worst_posterior, invertible = run_oracle()
    for name, actual, expected in (
        ("privacy", measured.privacy, privacy),
        ("utility", measured.utility, utility),
        ("max_posterior", measured.max_posterior, worst_posterior),
        ("invertible", measured.invertible, invertible),
    ):
        assert np.array_equal(actual, expected, equal_nan=True), (
            f"evaluate_batch.{name} is not bit-exact against the oracle"
        )
    seconds = _best_of(run, repeats)
    reference_seconds = _best_of(run_oracle, repeats)
    return {
        "seconds": seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / seconds,
    }


def _record(result: dict[str, float]) -> None:
    record_bench(
        "backend",
        OP,
        {"n_categories": N_CATEGORIES, "batch": BATCH},
        result["seconds"],
        reference_seconds=result["reference_seconds"],
    )


def _report(result: dict[str, float]) -> None:
    print(
        f"evaluate_batch (B={BATCH}, n={N_CATEGORIES}) "
        f"{result['seconds'] * 1e3:8.2f} ms vs oracle "
        f"{result['reference_seconds'] * 1e3:8.2f} ms  "
        f"speedup {result['speedup']:5.2f}x"
    )


def test_evaluation_speedup_over_oracle():
    """Production evaluate_batch must evaluate the (200, 32, 32) stack
    >= 1.5x faster than the frozen reference body."""
    result = measure_evaluation()
    _record(result)
    _report(result)
    assert result["speedup"] >= MIN_BACKEND_SPEEDUP, (
        f"evaluate_batch speedup {result['speedup']:.2f}x over the oracle is "
        f"below the required {MIN_BACKEND_SPEEDUP}x"
    )


def main() -> None:
    result = measure_evaluation()
    _record(result)
    _report(result)


if __name__ == "__main__":
    main()
