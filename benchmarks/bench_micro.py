"""Micro-benchmarks of the primitives the optimizer executes millions of times.

These are not paper figures; they document the cost model that makes the
evolutionary search practical (the paper notes that the closed-form utility
is what allows fast per-generation evaluation, unlike the iterative
estimator) and guard against performance regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import record_benchmark_stats

from repro.data.synthetic import normal_distribution
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.estimation import InversionEstimator, IterativeEstimator
from repro.rr.matrix import random_rr_matrix
from repro.rr.randomize import RandomizedResponse
from repro.rr.schemes import warner_matrix
from tests.oracles.scalar import (
    column_crossover,
    enforce_privacy_bound,
    proportional_column_mutation,
)

N_CATEGORIES = 10
N_RECORDS = 10_000


@pytest.fixture(scope="module")
def prior():
    return normal_distribution(N_CATEGORIES)


@pytest.fixture(scope="module")
def matrix():
    return warner_matrix(N_CATEGORIES, 0.7)


def test_matrix_evaluation_speed(benchmark, prior):
    """Privacy + utility evaluation of one candidate matrix (the inner loop
    of the optimizer)."""
    evaluator = MatrixEvaluator(prior, N_RECORDS, delta=0.8)
    candidates = [random_rr_matrix(N_CATEGORIES, seed=i) for i in range(64)]
    index = iter(range(10**9))

    def evaluate():
        return evaluator.evaluate(candidates[next(index) % len(candidates)])

    evaluation = benchmark(evaluate)
    record_benchmark_stats(
        benchmark, "micro", "matrix_evaluation",
        {"n_categories": N_CATEGORIES, "n_records": N_RECORDS},
    )
    assert 0.0 <= evaluation.privacy <= 1.0


def test_crossover_speed(benchmark):
    rng = np.random.default_rng(0)
    a = random_rr_matrix(N_CATEGORIES, seed=1)
    b = random_rr_matrix(N_CATEGORIES, seed=2)
    child_a, _child_b = benchmark(column_crossover, a, b, rng)
    record_benchmark_stats(benchmark, "micro", "column_crossover", {"n_categories": N_CATEGORIES})
    assert child_a.n_categories == N_CATEGORIES


def test_mutation_speed(benchmark):
    rng = np.random.default_rng(0)
    matrix = random_rr_matrix(N_CATEGORIES, seed=3)
    mutated = benchmark(proportional_column_mutation, matrix, rng)
    record_benchmark_stats(benchmark, "micro", "column_mutation", {"n_categories": N_CATEGORIES})
    assert mutated.n_categories == N_CATEGORIES


def test_bound_repair_speed(benchmark, prior):
    matrix = random_rr_matrix(N_CATEGORIES, seed=4, diagonal_bias=20.0)
    repaired = benchmark(enforce_privacy_bound, matrix, prior.probabilities, 0.7)
    record_benchmark_stats(benchmark, "micro", "bound_repair", {"n_categories": N_CATEGORIES})
    assert repaired.n_categories == N_CATEGORIES


def test_randomization_speed(benchmark, prior, matrix):
    """Disguising 10 000 records (the paper's dataset size)."""
    mechanism = RandomizedResponse(matrix)
    codes = prior.sample(N_RECORDS, seed=5)
    disguised = benchmark(mechanism.randomize_codes, codes, 6)
    record_benchmark_stats(benchmark, "micro", "randomization", {"n_records": N_RECORDS})
    assert disguised.shape == codes.shape


def test_inversion_estimation_speed(benchmark, prior, matrix):
    """The closed-form (inversion) estimator used inside the optimizer."""
    codes = prior.sample(N_RECORDS, seed=7)
    disguised = RandomizedResponse(matrix).randomize_codes(codes, seed=8)
    estimator = InversionEstimator()
    estimate = benchmark(estimator.estimate_from_codes, disguised, matrix)
    record_benchmark_stats(benchmark, "micro", "inversion_estimation", {"n_records": N_RECORDS})
    assert estimate.probabilities.sum() == pytest.approx(1.0)


def test_iterative_estimation_speed(benchmark, prior, matrix):
    """The iterative estimator (Eq. 3) — the slower alternative the paper
    avoids inside the optimization loop."""
    codes = prior.sample(N_RECORDS, seed=9)
    disguised = RandomizedResponse(matrix).randomize_codes(codes, seed=10)
    estimator = IterativeEstimator(max_iterations=500, tolerance=1e-8)
    estimate = benchmark(estimator.estimate_from_codes, disguised, matrix)
    record_benchmark_stats(benchmark, "micro", "iterative_estimation", {"n_records": N_RECORDS})
    assert estimate.probabilities.sum() == pytest.approx(1.0)
