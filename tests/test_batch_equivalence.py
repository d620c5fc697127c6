"""Batch/scalar equivalence properties of the vectorized evaluation engine.

The batch engine (`MatrixEvaluator.evaluate_batch`, the batched variation
operators and the array-level EMOO primitives) must agree with the scalar
reference implementations (``tests/oracles/scalar.py``) to 1e-12 across
random, diagonally-biased and
singular matrices — these properties are what lets the optimizer switch to
the vectorized hot path without changing results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from benchmarks.baselines.nsga2 import pareto_ranks_from_arrays
from repro.core.operators import (
    _rebalance_columns_batch,
    column_crossover_batch,
    enforce_privacy_bound_batch,
    proportional_column_mutation_batch,
)
from repro.data.distribution import CategoricalDistribution
from repro.metrics.evaluation import MatrixEvaluator
from repro.metrics.privacy import posterior_tensor
from repro.rr.matrix import RRMatrix, random_rr_matrix, stack_matrices
from tests.oracles.individual import Individual
from tests.oracles.scalar import (
    _rebalance_column,
    adversary_accuracy,
    adversary_accuracy_batch,
    enforce_privacy_bound,
    evaluate_scalar,
    max_posterior,
    max_posterior_batch,
    pareto_ranks_reference,
    posterior_matrix,
    privacy_score,
    privacy_score_batch,
    unstack_matrices,
)

TOLERANCE = 1e-12

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- strategies ---------------------------------------------------------------
@st.composite
def priors(draw, min_categories: int = 2, max_categories: int = 8):
    n = draw(st.integers(min_categories, max_categories))
    weights = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.floats(0.05, 10.0, allow_nan=False, allow_infinity=False),
        )
    )
    return CategoricalDistribution.from_weights(weights)


def _near_singular_blend(rng: np.random.Generator, n: int, log10_t: float) -> RRMatrix:
    """A matrix whose last column is a ``10**log10_t``-blend away from the
    first — near-singular, landing around the condition limit for
    ``log10_t`` near -12 (the former 1-norm/2-norm divergence band)."""
    values = random_rr_matrix(n, seed=rng).as_array()
    t = 10.0 ** log10_t
    blended = (1.0 - t) * values[:, 0] + t * values[:, -1]
    values[:, -1] = blended / blended.sum()
    return RRMatrix(values)


@st.composite
def matrix_batches(draw, n: int, max_batch: int = 6):
    """A stack of random matrices mixing plain-random, diagonally-biased,
    singular (duplicated-column) and near-singular members — the regimes the
    batch engine must classify exactly like the scalar path."""
    batch_size = draw(st.integers(1, max_batch))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    matrices = []
    for index in range(batch_size):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            matrices.append(random_rr_matrix(n, seed=rng))
        elif kind == 1:
            bias = float(rng.uniform(1.0, 12.0))
            matrices.append(random_rr_matrix(n, seed=rng, diagonal_bias=bias))
        elif kind == 2:
            # Exactly singular: duplicate one column.
            values = random_rr_matrix(n, seed=rng).as_array()
            values[:, -1] = values[:, 0]
            matrices.append(RRMatrix(values))
        elif kind == 3:
            # Rank-one (uniform columns): singular for n >= 2.
            matrices.append(RRMatrix.uniform(n))
        else:
            # Near-singular, straddling the condition limit.
            log10_t = draw(st.floats(-14.0, -9.0))
            matrices.append(_near_singular_blend(rng, n, log10_t))
    return matrices


@st.composite
def priors_and_batches(draw):
    prior = draw(priors())
    return prior, draw(matrix_batches(prior.n_categories))


# -- evaluation engine ---------------------------------------------------------
class TestBatchEvaluationEquivalence:
    @SETTINGS
    @given(case=priors_and_batches(), n_records=st.integers(10, 100_000))
    def test_evaluate_batch_matches_scalar(self, case, n_records):
        prior, matrices = case
        evaluator = MatrixEvaluator(prior, n_records, delta=None)
        batch = evaluator.evaluate_batch(matrices)
        assert len(batch) == len(matrices)
        for index, matrix in enumerate(matrices):
            scalar = evaluate_scalar(evaluator, matrix)
            result = batch[index]
            assert result.invertible == scalar.invertible
            assert result.feasible == scalar.feasible
            assert result.privacy == pytest.approx(scalar.privacy, abs=TOLERANCE)
            assert result.max_posterior == pytest.approx(
                scalar.max_posterior, abs=TOLERANCE
            )
            if scalar.invertible:
                assert result.utility == pytest.approx(
                    scalar.utility, rel=TOLERANCE, abs=TOLERANCE
                )
            else:
                assert not np.isfinite(result.utility)

    @SETTINGS
    @given(case=priors_and_batches(), delta_offset=st.floats(0.01, 0.3))
    def test_feasibility_matches_scalar_with_delta(self, case, delta_offset):
        prior, matrices = case
        delta = min(0.999, prior.max_probability + delta_offset)
        evaluator = MatrixEvaluator(prior, 1000, delta=delta)
        batch = evaluator.evaluate_batch(matrices)
        for index, matrix in enumerate(matrices):
            assert batch[index].feasible == evaluate_scalar(evaluator, matrix).feasible

    @SETTINGS
    @given(case=priors_and_batches())
    def test_posterior_tensor_matches_posterior_matrix(self, case):
        prior, matrices = case
        stack = stack_matrices(matrices)
        tensor = posterior_tensor(stack, prior.probabilities)
        for index, matrix in enumerate(matrices):
            np.testing.assert_allclose(
                tensor[index],
                posterior_matrix(matrix, prior.probabilities),
                atol=TOLERANCE,
            )

    @SETTINGS
    @given(case=priors_and_batches())
    def test_batch_metric_helpers_match_scalar(self, case):
        prior, matrices = case
        stack = stack_matrices(matrices)
        accuracies = adversary_accuracy_batch(stack, prior.probabilities)
        privacies = privacy_score_batch(stack, prior.probabilities)
        posteriors = max_posterior_batch(stack, prior.probabilities)
        for index, matrix in enumerate(matrices):
            assert accuracies[index] == pytest.approx(
                adversary_accuracy(matrix, prior.probabilities), abs=TOLERANCE
            )
            assert privacies[index] == pytest.approx(
                privacy_score(matrix, prior.probabilities), abs=TOLERANCE
            )
            assert posteriors[index] == pytest.approx(
                max_posterior(matrix, prior.probabilities), abs=TOLERANCE
            )

    @SETTINGS
    @given(case=priors_and_batches())
    def test_scalar_evaluate_is_batch_of_one(self, case):
        """The public scalar API is a thin wrapper: identical to the batch."""
        prior, matrices = case
        evaluator = MatrixEvaluator(prior, 1000, delta=None)
        batch = evaluator.evaluate_batch(matrices)
        for index, matrix in enumerate(matrices):
            assert evaluator.evaluate(matrix) == batch[index]

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 8),
        log10_t=st.floats(-13.5, -10.5),
    )
    def test_invertibility_agrees_in_the_former_divergence_band(self, seed, n, log10_t):
        """Regression for PR 1's wart: the batch path classified near-singular
        matrices by the 1-norm condition estimate while the scalar path used
        the SVD 2-norm, so the two could disagree in a band around the
        condition limit.  Classification is unified now — every public path
        must agree on invertibility for matrices inside that band."""
        rng = np.random.default_rng(seed)
        matrix = _near_singular_blend(rng, n, log10_t)
        prior = CategoricalDistribution(np.full(n, 1.0 / n))
        evaluator = MatrixEvaluator(prior, 1000, delta=None)
        batch = evaluator.evaluate_batch([matrix])
        assert evaluator.evaluate(matrix).invertible == batch[0].invertible
        assert evaluate_scalar(evaluator, matrix).invertible == batch[0].invertible
        assert matrix.is_invertible == batch[0].invertible


# -- variation operators -------------------------------------------------------
class TestBatchOperatorEquivalence:
    @SETTINGS
    @given(case=priors_and_batches(), delta_offset=st.floats(0.01, 0.3))
    def test_bound_repair_batch_matches_scalar(self, case, delta_offset):
        prior, matrices = case
        delta = min(0.999, prior.max_probability + delta_offset)
        stack = stack_matrices(matrices)
        repaired = enforce_privacy_bound_batch(stack, prior.probabilities, delta)
        for index, matrix in enumerate(matrices):
            reference = enforce_privacy_bound(matrix, prior.probabilities, delta)
            np.testing.assert_allclose(
                repaired[index], reference.probabilities, atol=TOLERANCE
            )

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 8),
        batch_size=st.integers(1, 8),
    )
    def test_rebalance_batch_matches_scalar(self, seed, n, batch_size):
        rng = np.random.default_rng(seed)
        columns = rng.dirichlet(np.ones(n), size=batch_size)
        changed = rng.integers(0, n, size=batch_size)
        room_up = 1.0 - columns[np.arange(batch_size), changed]
        room_down = columns[np.arange(batch_size), changed]
        deltas = np.where(
            rng.integers(0, 2, size=batch_size).astype(bool),
            rng.uniform(0, 1, size=batch_size) * room_up,
            -rng.uniform(0, 1, size=batch_size) * room_down,
        )
        batch = _rebalance_columns_batch(columns, changed, deltas)
        for index in range(batch_size):
            reference = _rebalance_column(
                columns[index], int(changed[index]), float(deltas[index])
            )
            np.testing.assert_allclose(batch[index], reference, atol=TOLERANCE)

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 8), pairs=st.integers(1, 6))
    def test_crossover_batch_children_are_column_stochastic(self, seed, n, pairs):
        rng = np.random.default_rng(seed)
        first = stack_matrices([random_rr_matrix(n, seed=rng) for _ in range(pairs)])
        second = stack_matrices([random_rr_matrix(n, seed=rng) for _ in range(pairs)])
        child_a, child_b = column_crossover_batch(first, second, rng)
        for child in (child_a, child_b):
            np.testing.assert_allclose(child.sum(axis=1), 1.0, atol=1e-8)
            assert np.all(child >= -1e-12)
        # Every column of every child comes verbatim from one of its parents.
        for pair in range(pairs):
            for column in range(n):
                from_first = np.allclose(child_a[pair, :, column], first[pair, :, column])
                from_second = np.allclose(child_a[pair, :, column], second[pair, :, column])
                assert from_first or from_second

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 8),
        batch_size=st.integers(1, 8),
        scale=st.floats(0.01, 1.0),
    )
    def test_mutation_batch_preserves_stochasticity(self, seed, n, batch_size, scale):
        rng = np.random.default_rng(seed)
        stack = stack_matrices([random_rr_matrix(n, seed=rng) for _ in range(batch_size)])
        mutated = proportional_column_mutation_batch(stack, rng, scale=scale)
        np.testing.assert_allclose(mutated.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(mutated >= -1e-12)
        assert np.all(mutated <= 1.0 + 1e-12)
        # At most one column differs per matrix (one mutation per matrix).
        for index in range(batch_size):
            changed_columns = [
                column
                for column in range(n)
                if not np.allclose(mutated[index, :, column], stack[index, :, column])
            ]
            assert len(changed_columns) <= 1

    def test_unstack_roundtrip(self):
        matrices = [random_rr_matrix(5, seed=index) for index in range(4)]
        assert unstack_matrices(stack_matrices(matrices)) == matrices


# -- EMOO primitives -----------------------------------------------------------
def _random_population(rng: np.random.Generator, size: int) -> list[Individual]:
    objectives = rng.normal(size=(size, 2))
    # Duplicate some rows so ties are exercised.
    if size >= 4:
        objectives[size // 2] = objectives[0]
    feasible = rng.random(size) < 0.8
    return [
        Individual(genome=None, objectives=objectives[index], feasible=bool(feasible[index]))
        for index in range(size)
    ]


class TestParetoRankEquivalence:
    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(1, 60))
    def test_vectorized_ranks_match_reference_loop(self, seed, size):
        population = _random_population(np.random.default_rng(seed), size)
        reference = pareto_ranks_reference(population)
        vectorized = pareto_ranks_from_arrays(
            np.vstack([individual.objectives for individual in population]),
            np.array([individual.feasible for individual in population]),
        )
        np.testing.assert_array_equal(vectorized, reference)

    def test_empty_population(self):
        assert pareto_ranks_from_arrays(np.empty((0, 2))).size == 0
        assert pareto_ranks_reference([]).size == 0
