"""Kernel equivalence suite: every production kernel vs its frozen oracle.

Each batched kernel of the optimizer loop and the RR runtime is run on
identical inputs next to its frozen reference body in
``tests/oracles/kernels.py`` and compared with ``np.array_equal`` — bit for
bit, masks included.  The kernels that consume randomness (crossover,
mutation, disguise) are driven through their public operators with a seeded
generator, while the oracle receives the same values drawn from an identical
generator in the documented order, so the draw order is pinned too.

Inputs are generated from hypothesis-drawn seeds/shapes, including exactly
singular and duplicated-column stack members (which make one-call inversion
raise and take the ``slogdet``-screened path), zero-probability prior
categories, empty stacks, saturated mutation targets, and the near-singular
1-norm classification band from ``tests/utils/test_linalg.py``.  The SPEA2
selection kernels (distances, k-th nearest distance, dominance, raw
fitness) run on hostile objective sets: up to 200 rows and 12 objectives,
±inf, -0.0, scales up to 1e155, duplicate rows and feasibility masks,
compared with ``np.array_equal(..., equal_nan=True)`` plus the sign bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.operators import (
    column_crossover_batch,
    enforce_privacy_bound_batch,
    proportional_column_mutation_batch,
)
from repro.emoo.density import kth_nearest_distances, pairwise_distances
from repro.emoo.dominance import dominance_matrix_from_arrays
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.metrics.evaluation import MatrixEvaluator, evaluate_stack
from repro.rr.randomize import disguise_codes
from repro.utils.linalg import DEFAULT_CONDITION_LIMIT, batched_safe_inverses
from tests.oracles import kernels as oracle
from tests.oracles.disguise import broadcast_disguise_reference

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(0, 2**32 - 1)


def _stochastic_stack(
    seed: int, batch: int, n: int, *, include_singular: bool = False
) -> np.ndarray:
    """A random column-stochastic ``(batch, n, n)`` stack; optionally with a
    uniform (singular) member and a duplicated-column member mixed in.

    C-contiguous, as every production caller guarantees (BLAS rounding
    depends on operand layout)."""
    rng = np.random.default_rng(seed)
    stack = np.ascontiguousarray(
        rng.dirichlet(np.ones(n), size=(batch, n)).transpose(0, 2, 1)
    )
    if include_singular and batch >= 1:
        stack[0] = 1.0 / n
    if include_singular and batch >= 2:
        stack[1][:, n - 1] = stack[1][:, 0]
    return stack


def _prior(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.ones(n) * 2.0)


def _near_singular_stochastic(t: float) -> np.ndarray:
    """Same construction as ``tests/utils/test_linalg.py``: column-stochastic
    3x3 whose second column is a ``t``-blend away from the first."""
    base = np.array([0.5, 0.3, 0.2])
    other = np.array([0.2, 0.5, 0.3])
    matrix = np.column_stack([base, (1 - t) * base + t * other, [0.1, 0.1, 0.8]])
    return matrix / matrix.sum(axis=0)


#: Blend scan straddling the 1-norm condition-limit classification boundary.
BAND_BLENDS = np.geomspace(1e-13, 1e-10, 60)


def _band_stack() -> np.ndarray:
    return np.stack([_near_singular_stochastic(float(t)) for t in BAND_BLENDS])


def _assert_columns_equal(actual, expected) -> None:
    assert len(actual) == len(expected)
    for actual_column, expected_column in zip(actual, expected):
        actual_column = np.asarray(actual_column)
        expected_column = np.asarray(expected_column)
        assert actual_column.shape == expected_column.shape
        assert actual_column.dtype == expected_column.dtype
        np.testing.assert_array_equal(actual_column, expected_column)


def _oracle_evaluation(stack, prior, n_records, *, tensor_posterior: bool):
    return oracle.evaluate_stack(
        stack,
        prior,
        n_records,
        condition_limit=DEFAULT_CONDITION_LIMIT,
        cheap_posterior_bound=not tensor_posterior,
    )


def _one_call_inversion_raises(stack: np.ndarray) -> bool:
    try:
        np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        return True
    return False


class TestEvaluateStack:
    @pytest.mark.parametrize("tensor_posterior", [True, False], ids=["tensor", "row-bound"])
    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_oracle(self, tensor_posterior, seed, batch, n):
        stack = _stochastic_stack(seed, batch, n, include_singular=True)
        prior = _prior(seed + 1, n)
        _assert_columns_equal(
            evaluate_stack(stack, prior, 10_000),
            _oracle_evaluation(stack, prior, 10_000, tensor_posterior=tensor_posterior),
        )

    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_regular_stacks_take_the_one_call_path(self, seed, batch, n):
        stack = _stochastic_stack(seed, batch, n)
        prior = _prior(seed + 1, n)
        _assert_columns_equal(
            evaluate_stack(stack, prior, 10_000),
            _oracle_evaluation(stack, prior, 10_000, tensor_posterior=True),
        )

    def test_exactly_singular_row_takes_the_screened_path(self):
        stack = _stochastic_stack(5, 6, 4, include_singular=True)
        assert _one_call_inversion_raises(stack)
        prior = _prior(6, 4)
        privacy, utility, worst, invertible = evaluate_stack(stack, prior, 10_000)
        assert not invertible[0] and np.isinf(utility[0])
        assert invertible[2:].all()
        _assert_columns_equal(
            (privacy, utility, worst, invertible),
            _oracle_evaluation(stack, prior, 10_000, tensor_posterior=True),
        )

    def test_empty_stack(self):
        prior = np.array([0.5, 0.5])
        stack = np.empty((0, 2, 2))
        _assert_columns_equal(
            evaluate_stack(stack, prior, 100),
            _oracle_evaluation(stack, prior, 100, tensor_posterior=True),
        )

    def test_near_singular_band_classification(self):
        # Inside the classification band the invertibility decision is the
        # whole ballgame: production must agree with the oracle on every
        # matrix of the scan, and the scored columns must match too.
        stack = _band_stack()
        prior = np.array([0.5, 0.3, 0.2])
        columns = evaluate_stack(stack, prior, 10_000)
        invertible = columns[3]
        assert not invertible.all() and invertible.any()
        _assert_columns_equal(
            columns, _oracle_evaluation(stack, prior, 10_000, tensor_posterior=True)
        )

    @given(
        seed=seeds,
        n=st.integers(3, 7),
        zeros=st.integers(1, 2),
        batch=st.integers(1, 6),
    )
    @SETTINGS
    def test_zero_prior_categories(self, seed, n, zeros, batch):
        # Zero-probability categories make a whole joint row vanish on the
        # first member: only the zero-prior categories can report 0, so
        # report 0 has probability 0 and its posterior row must use the
        # 0/0 -> 0 convention on both sides (every other row is mixed, so
        # the convention decides the worst posterior).
        prior = _prior(seed, n)
        prior[:zeros] = 0.0
        prior /= prior.sum()
        stack = _stochastic_stack(seed + 1, batch, n)
        stack[0] = 0.0
        stack[0][0, :zeros] = 1.0
        stack[0][1:, zeros:] = _stochastic_stack(seed + 2, 1, n - 1)[0][:, : n - zeros]
        for tensor_posterior in (True, False):
            _assert_columns_equal(
                evaluate_stack(stack, prior, 5_000),
                _oracle_evaluation(
                    stack, prior, 5_000, tensor_posterior=tensor_posterior
                ),
            )


def evaluation_prior(prior: np.ndarray) -> np.ndarray:
    """The prior vector exactly as ``MatrixEvaluator`` stores it."""
    return MatrixEvaluator(prior, 1).prior.probabilities


class TestEvaluatorCallers:
    """``MatrixEvaluator.evaluate_batch`` as the full-fidelity caller (which
    the oracle serves through the posterior tensor) and as the fidelity
    caller (served through the row bound)."""

    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_full_fidelity_caller(self, seed, batch, n):
        stack = _stochastic_stack(seed, batch, n, include_singular=True)
        prior = _prior(seed + 1, n)
        evaluation = MatrixEvaluator(prior, 10_000).evaluate_batch(stack)
        privacy, utility, worst, invertible = _oracle_evaluation(
            stack, evaluation_prior(prior), 10_000, tensor_posterior=True
        )
        _assert_columns_equal(
            (evaluation.privacy, evaluation.utility, evaluation.max_posterior,
             evaluation.invertible),
            (privacy, utility, worst, invertible),
        )

    @given(
        seed=seeds,
        batch=st.integers(1, 8),
        n=st.integers(2, 6),
        fidelity=st.sampled_from([0.05, 0.25, 1.0]),
    )
    @SETTINGS
    def test_fidelity_caller(self, seed, batch, n, fidelity):
        stack = _stochastic_stack(seed, batch, n, include_singular=True)
        prior = _prior(seed + 1, n)
        evaluator = MatrixEvaluator(prior, 10_000)
        evaluation = evaluator.evaluate_batch(stack, fidelity=fidelity)
        privacy, utility, worst, invertible = _oracle_evaluation(
            stack, evaluation_prior(prior), 10_000, tensor_posterior=False
        )
        column = np.full(batch, fidelity)
        utility = utility * (10_000.0 / evaluator.effective_record_counts(column))
        _assert_columns_equal(
            (evaluation.privacy, evaluation.utility, evaluation.max_posterior,
             evaluation.invertible),
            (privacy, utility, worst, invertible),
        )


class TestBatchedSafeInverses:
    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_oracle(self, seed, batch, n):
        stack = _stochastic_stack(seed, batch, n, include_singular=True)
        _assert_columns_equal(
            batched_safe_inverses(stack),
            oracle.batched_safe_inverses(stack, condition_limit=DEFAULT_CONDITION_LIMIT),
        )

    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_regular_stacks_match_oracle(self, seed, batch, n):
        stack = _stochastic_stack(seed, batch, n)
        _assert_columns_equal(
            batched_safe_inverses(stack),
            oracle.batched_safe_inverses(stack, condition_limit=DEFAULT_CONDITION_LIMIT),
        )

    def test_exactly_singular_rows_are_zero_and_masked(self):
        stack = _stochastic_stack(9, 5, 3, include_singular=True)
        assert _one_call_inversion_raises(stack)
        inverses, invertible = batched_safe_inverses(stack)
        assert not invertible[0] and not inverses[0].any()
        _assert_columns_equal(
            (inverses, invertible),
            oracle.batched_safe_inverses(stack, condition_limit=DEFAULT_CONDITION_LIMIT),
        )

    def test_near_singular_band(self):
        stack = _band_stack()
        inverses, invertible = batched_safe_inverses(stack)
        assert not invertible.all() and invertible.any()
        _assert_columns_equal(
            (inverses, invertible),
            oracle.batched_safe_inverses(stack, condition_limit=DEFAULT_CONDITION_LIMIT),
        )

    def test_empty_stack(self):
        inverses, invertible = batched_safe_inverses(np.empty((0, 3, 3)))
        assert inverses.shape == (0, 3, 3)
        assert invertible.size == 0


def _hostile_objectives(seed: int, count: int, dimensions: int) -> np.ndarray:
    """Objective rows built to break a selection kernel that is not bit-exact.

    Scales run from 1e-3 to 1e155 (squares past the float range overflow to
    inf), half the sets sit on a small integer grid (tied coordinates and
    exactly equal rows), and sets of two or more rows get duplicate rows,
    -0.0/+0.0 and ±inf coordinates, with two rows sharing one infinite
    coordinate so some off-diagonal distances are NaN.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** float(rng.integers(-3, 156))
    if rng.random() < 0.5:
        points = rng.integers(-2, 3, size=(count, dimensions)) * scale
    else:
        points = rng.normal(size=(count, dimensions)) * scale
    if count < 2 or dimensions == 0:
        return points
    points[rng.integers(count)] = points[rng.integers(count)]
    cells = rng.integers(0, count * dimensions // 20 + 2)
    points[rng.integers(0, count, cells), rng.integers(0, dimensions, cells)] = (
        rng.choice([np.inf, -np.inf, -0.0, 0.0], size=cells)
    )
    shared = rng.choice(count, size=2, replace=False)
    points[shared, rng.integers(dimensions)] = rng.choice([np.inf, -np.inf])
    return points


def _feasibility(seed: int, count: int) -> np.ndarray | None:
    """No mask, an all-feasible mask, or a random mixed mask."""
    rng = np.random.default_rng(seed)
    choice = rng.integers(3)
    if choice == 0:
        return None
    if choice == 1:
        return np.ones(count, dtype=bool)
    return rng.random(count) < 0.6


def _assert_floats_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same shape and dtype, equal values with NaN where NaN is, and the same
    sign on every non-NaN entry (so -0.0 against +0.0 is a mismatch)."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[numbers]), np.signbit(expected[numbers]))


hostile_shapes = {
    "seed": seeds,
    "count": st.integers(0, 200),
    "dimensions": st.integers(0, 12),
}


class TestPairwiseDistances:
    @given(seed=seeds, count=st.integers(0, 12), dimensions=st.integers(0, 5))
    @SETTINGS
    def test_matches_oracle(self, seed, count, dimensions):
        points = np.random.default_rng(seed).uniform(-5.0, 5.0, (count, dimensions))
        if count >= 2:
            points[1] = points[0]  # coincident rows: exact-zero distances
        actual = pairwise_distances(points)
        expected = oracle.pairwise_distances(points)
        assert actual.shape == expected.shape == (count, count)
        np.testing.assert_array_equal(actual, expected)

    @given(**hostile_shapes)
    @SETTINGS
    def test_matches_oracle_on_hostile_sets(self, seed, count, dimensions):
        points = _hostile_objectives(seed, count, dimensions)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = oracle.pairwise_distances(points)
        _assert_floats_identical(pairwise_distances(points), expected)

    def test_single_point_has_zero_distance_even_when_infinite(self):
        # The oracle's one-point fallback broadcasts inf - inf = nan onto the
        # diagonal; the kernel (like the pdist path before it) returns zero.
        np.testing.assert_array_equal(
            pairwise_distances(np.array([[np.inf, 1.0]])), np.zeros((1, 1))
        )


class TestKthNearestDistances:
    @given(**hostile_shapes, k=st.integers(1, 6))
    @SETTINGS
    def test_matches_oracle_on_hostile_sets(self, seed, count, dimensions, k):
        distances = pairwise_distances(_hostile_objectives(seed, count, dimensions))
        expected = oracle.kth_nearest_distances(distances, k)
        actual = kth_nearest_distances(None, k, distances=distances)
        _assert_floats_identical(actual, expected)
        # Computing the distances inside gives the same bits.
        points = _hostile_objectives(seed, count, dimensions)
        _assert_floats_identical(kth_nearest_distances(points, k), expected)


class TestDominanceMatrix:
    @given(**hostile_shapes)
    @SETTINGS
    def test_matches_oracle_on_hostile_sets(self, seed, count, dimensions):
        points = _hostile_objectives(seed, count, dimensions)
        feasible = _feasibility(seed + 1, count)
        actual = dominance_matrix_from_arrays(points, feasible)
        expected = oracle.dominance_matrix(points, feasible)
        assert actual.dtype == expected.dtype == np.dtype(bool)
        assert np.array_equal(actual, expected)


class TestSpea2Fitness:
    @given(**hostile_shapes, k=st.integers(1, 3))
    @SETTINGS
    def test_matches_oracle_on_hostile_sets(self, seed, count, dimensions, k):
        points = _hostile_objectives(seed, count, dimensions)
        feasible = _feasibility(seed + 1, count)
        distances = pairwise_distances(points)
        strengths, densities, fitness = spea2_fitness_from_arrays(
            points, feasible, k, distances=distances
        )
        matrix = oracle.dominance_matrix(points, feasible)
        sigma = oracle.kth_nearest_distances(distances, k)
        finite_sigma = np.where(np.isfinite(sigma), sigma, np.finfo(np.float64).max / 4)
        expected_densities = 1.0 / (finite_sigma + 2.0)
        assert np.array_equal(strengths, matrix.sum(axis=1))
        _assert_floats_identical(densities, expected_densities)
        _assert_floats_identical(fitness, oracle.raw_fitness(matrix) + expected_densities)


class TestCrossoverColumns:
    @given(seed=seeds, pairs=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_oracle(self, seed, pairs, n):
        first = _stochastic_stack(seed, pairs, n)
        second = _stochastic_stack(seed + 1, pairs, n)
        cuts = np.random.default_rng(seed + 2).integers(1, n, size=pairs)
        _assert_columns_equal(
            column_crossover_batch(first, second, np.random.default_rng(seed + 2)),
            oracle.crossover_columns(first, second, cuts),
        )


class TestMutateStack:
    @given(seed=seeds, batch=st.integers(1, 8), n=st.integers(2, 6))
    @SETTINGS
    def test_matches_oracle(self, seed, batch, n):
        stack = _stochastic_stack(seed, batch, n)
        draws = np.random.default_rng(seed + 3)
        column_indices = draws.integers(0, n, size=batch)
        element_indices = draws.integers(0, n, size=batch)
        magnitudes = draws.uniform(0.0, 0.3, size=batch)
        add = draws.integers(0, 2, size=batch).astype(bool)
        # Saturate one target element (a one-hot column) so the flip rule of
        # the mutation is exercised, not just the easy path.
        one_hot = np.zeros(n)
        one_hot[element_indices[0]] = 1.0
        stack[0][:, column_indices[0]] = one_hot
        np.testing.assert_array_equal(
            proportional_column_mutation_batch(
                stack, np.random.default_rng(seed + 3), scale=0.3
            ),
            oracle.mutate_stack(stack, column_indices, element_indices, magnitudes, add),
        )


def _disguise_inputs(seed: int, n: int, count: int, *, adversarial: bool = True):
    """A stochastic matrix plus codes/uniforms, with the adversarial cases
    planted: a zero-probability-prefix column (its CDF repeats exact values)
    and uniforms that land exactly on CDF boundaries."""
    rng = np.random.default_rng(seed)
    probabilities = _stochastic_stack(seed, 1, n)[0]
    codes = rng.integers(0, n, size=count)
    uniforms = rng.random(count)
    if adversarial and count:
        # Column 0 starts with zero probability: cdf[0, 0] == 0.0 exactly.
        probabilities[:, 0] = 0.0
        probabilities[n - 1, 0] = 1.0
        codes[0] = 0
        cdf = np.cumsum(probabilities, axis=0)
        cdf[-1, :] = 1.0
        # Plant uniforms exactly on CDF boundaries (including the 0.0 and
        # clamped 1.0 edges) — the strict/non-strict comparison choice is
        # exactly what these inputs catch.
        planted = min(count, n)
        uniforms[:planted] = cdf[rng.integers(0, n, size=planted), codes[:planted]]
    return probabilities, codes, uniforms


class TestDisguiseCodes:
    @given(seed=seeds, n=st.integers(2, 12), count=st.integers(0, 400))
    @SETTINGS
    def test_matches_oracle_and_frozen_broadcast(self, seed, n, count):
        probabilities, codes, uniforms = _disguise_inputs(seed, n, count)
        actual = disguise_codes(probabilities, codes, uniforms)
        assert actual.dtype == np.int64
        np.testing.assert_array_equal(
            actual, oracle.disguise_codes(probabilities, codes, uniforms)
        )
        # The frozen (n, N) broadcast is the kernel's executable
        # specification.
        np.testing.assert_array_equal(
            actual, broadcast_disguise_reference(probabilities, codes, uniforms)
        )
        if count:
            assert actual.min() >= 0 and actual.max() < n

    # 255/256/257 straddle the uint8/uint16 boundary of the sort key.
    @pytest.mark.parametrize("n", [2, 100, 255, 256, 257])
    def test_extreme_domain_sizes(self, n):
        probabilities, codes, uniforms = _disguise_inputs(7, n, 5_000)
        codes[-1] = n - 1  # the largest key of the domain
        np.testing.assert_array_equal(
            disguise_codes(probabilities, codes, uniforms),
            broadcast_disguise_reference(probabilities, codes, uniforms),
        )

    def test_identity_matrix_is_noop(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 6, size=1_000)
        uniforms = rng.random(codes.size)
        np.testing.assert_array_equal(disguise_codes(np.eye(6), codes, uniforms), codes)


class TestRepairStack:
    @given(
        seed=seeds,
        batch=st.integers(0, 6),
        n=st.integers(2, 5),
        delta=st.sampled_from([0.5, 0.8, 0.999]),
    )
    @SETTINGS
    def test_matches_oracle(self, seed, batch, n, delta):
        # Diagonally-biased stacks: high posteriors, so the repair actually
        # iterates instead of exiting on the first bound check.
        noise = _stochastic_stack(seed, batch, n)
        stack = 0.7 * np.eye(n)[None, :, :] + 0.3 * noise
        stack = stack / stack.sum(axis=1, keepdims=True)
        prior = _prior(seed + 1, n)
        np.testing.assert_array_equal(
            enforce_privacy_bound_batch(stack, prior, delta, max_passes=5, tolerance=1e-9),
            oracle.repair_stack(stack, prior, delta, max_passes=5, tolerance=1e-9),
        )
