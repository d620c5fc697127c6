"""Tests for the RR-matrix variation operators (Sections V-E/F/G)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.operators import (
    column_crossover_batch,
    enforce_privacy_bound_batch,
    proportional_column_mutation_batch,
    random_initial_matrices,
)
from repro.exceptions import ValidationError
from repro.rr.matrix import RRMatrix, random_rr_matrix
from repro.rr.schemes import warner_matrix
from tests.oracles.scalar import max_posterior


def assert_is_rr_matrix(matrix: RRMatrix) -> None:
    """Column-stochasticity invariant every operator must preserve."""
    probabilities = matrix.probabilities
    assert np.all(probabilities >= -1e-12)
    assert np.all(probabilities <= 1.0 + 1e-12)
    np.testing.assert_allclose(probabilities.sum(axis=0), 1.0, atol=1e-9)


# The operators work on (B, n, n) stacks; these wrap one matrix as a batch of
# one, which is how NSGA-II and the weighted-sum GA call them.
def column_crossover(first: RRMatrix, second: RRMatrix, rng) -> tuple[RRMatrix, RRMatrix]:
    child_a, child_b = column_crossover_batch(
        first.probabilities[None], second.probabilities[None], rng
    )
    return RRMatrix(child_a[0]), RRMatrix(child_b[0])


def proportional_column_mutation(matrix: RRMatrix, rng, *, scale: float = 0.3) -> RRMatrix:
    mutated = proportional_column_mutation_batch(matrix.probabilities[None], rng, scale=scale)
    return RRMatrix(mutated[0])


def enforce_privacy_bound(matrix: RRMatrix, prior: np.ndarray, delta: float) -> RRMatrix:
    return RRMatrix(enforce_privacy_bound_batch(matrix.probabilities[None], prior, delta)[0])


class TestColumnCrossover:
    def test_children_are_valid_rr_matrices(self, rng):
        for _ in range(20):
            a = random_rr_matrix(6, seed=rng)
            b = random_rr_matrix(6, seed=rng)
            child_a, child_b = column_crossover(a, b, rng)
            assert_is_rr_matrix(child_a)
            assert_is_rr_matrix(child_b)

    def test_children_mix_parent_columns(self, rng):
        a = RRMatrix.identity(4)
        b = RRMatrix.uniform(4)
        child_a, child_b = column_crossover(a, b, rng)
        # Each child column must equal the corresponding column of one parent.
        for child in (child_a, child_b):
            for column_index in range(4):
                column = child.column(column_index)
                from_a = np.allclose(column, a.column(column_index))
                from_b = np.allclose(column, b.column(column_index))
                assert from_a or from_b

    def test_swap_is_symmetric(self, rng):
        a = RRMatrix.identity(3)
        b = RRMatrix.uniform(3)
        child_a, child_b = column_crossover(a, b, np.random.default_rng(0))
        # Together the children contain exactly the parents' columns.
        combined_children = np.sort(
            np.concatenate([child_a.probabilities.ravel(), child_b.probabilities.ravel()])
        )
        combined_parents = np.sort(
            np.concatenate([a.probabilities.ravel(), b.probabilities.ravel()])
        )
        np.testing.assert_allclose(combined_children, combined_parents)

    def test_size_mismatch_raises(self, rng):
        with pytest.raises(ValidationError):
            column_crossover(RRMatrix.identity(3), RRMatrix.identity(4), rng)


class TestProportionalColumnMutation:
    def test_result_is_valid_rr_matrix(self, rng):
        for _ in range(50):
            matrix = random_rr_matrix(5, seed=rng)
            mutated = proportional_column_mutation(matrix, rng, scale=0.3)
            assert_is_rr_matrix(mutated)

    def test_changes_exactly_one_column(self, rng):
        matrix = warner_matrix(6, 0.7)
        mutated = proportional_column_mutation(matrix, np.random.default_rng(3), scale=0.2)
        differing_columns = [
            index
            for index in range(6)
            if not np.allclose(matrix.column(index), mutated.column(index))
        ]
        assert len(differing_columns) <= 1

    def test_original_is_not_modified(self, rng):
        matrix = warner_matrix(4, 0.6)
        original = matrix.as_array()
        proportional_column_mutation(matrix, rng)
        np.testing.assert_array_equal(matrix.probabilities, original)

    def test_mutation_actually_changes_something_eventually(self, rng):
        matrix = warner_matrix(5, 0.5)
        changed = any(
            not proportional_column_mutation(matrix, rng, scale=0.3).isclose(matrix)
            for _ in range(10)
        )
        assert changed

    def test_rejects_bad_scale(self, rng):
        with pytest.raises(ValidationError):
            proportional_column_mutation(RRMatrix.identity(3), rng, scale=0.0)

    def test_identity_matrix_mutation_stays_valid(self, rng):
        # The identity matrix is an edge case: columns have a single 1 and the
        # rebalancing has no headroom in one direction.
        for _ in range(20):
            mutated = proportional_column_mutation(RRMatrix.identity(4), rng, scale=0.5)
            assert_is_rr_matrix(mutated)


class TestEnforcePrivacyBound:
    def test_repaired_matrix_is_valid(self, small_prior, rng):
        for _ in range(20):
            matrix = random_rr_matrix(4, seed=rng, diagonal_bias=5.0)
            repaired = enforce_privacy_bound(matrix, small_prior.probabilities, 0.6)
            assert_is_rr_matrix(repaired)

    def test_bound_is_met_after_repair(self, small_prior, rng):
        for _ in range(20):
            matrix = random_rr_matrix(4, seed=rng, diagonal_bias=8.0)
            repaired = enforce_privacy_bound(matrix, small_prior.probabilities, 0.65)
            assert max_posterior(repaired, small_prior.probabilities) <= 0.65 + 1e-6

    def test_identity_matrix_gets_repaired(self, small_prior):
        repaired = enforce_privacy_bound(RRMatrix.identity(4), small_prior.probabilities, 0.7)
        assert max_posterior(repaired, small_prior.probabilities) <= 0.7 + 1e-6

    def test_already_feasible_matrix_unchanged(self, small_prior):
        matrix = RRMatrix.uniform(4)
        repaired = enforce_privacy_bound(matrix, small_prior.probabilities, 0.7)
        assert repaired.isclose(matrix)

    def test_infeasible_delta_returns_best_effort(self):
        # delta below max prior cannot be met (Theorem 5); the repair must not
        # crash or return an invalid matrix.
        prior = np.array([0.9, 0.05, 0.05])
        repaired = enforce_privacy_bound(RRMatrix.identity(3), prior, 0.5)
        assert_is_rr_matrix(repaired)

    def test_rejects_bad_delta(self, small_prior):
        with pytest.raises(ValidationError):
            enforce_privacy_bound(RRMatrix.identity(4), small_prior.probabilities, 0.0)

    def test_repair_never_worsens_off_diagonal_worst_cell(self):
        """Regression: Hypothesis falsifying example for the old repair.

        Shrinking the worst cell ``theta[i, j]`` shrinks row ``i``'s
        normaliser, which *raises* the other posteriors of report ``i``; with
        this matrix the old single-trajectory repair ended in a state whose
        worst posterior exceeded the input's.  The repair must return the best
        state visited, so the worst-case posterior never increases.
        """
        prior = np.array([0.25, 0.25, 0.25, 0.25])
        values = np.array(
            [
                [0.25, 0.25, 0.88888889, 0.96385542],
                [0.25, 0.25, 0.03703704, 0.01204819],
                [0.25, 0.25, 0.03703704, 0.01204819],
                [0.25, 0.25, 0.03703704, 0.01204819],
            ]
        )
        matrix = RRMatrix(values / values.sum(axis=0, keepdims=True))
        delta = min(0.999, prior.max() + 0.125)
        repaired = enforce_privacy_bound(matrix, prior, delta)
        assert_is_rr_matrix(repaired)
        assert max_posterior(repaired, prior) <= max_posterior(matrix, prior) + 1e-9


class TestRandomInitialMatrices:
    def test_count_and_validity(self, rng):
        matrices = random_initial_matrices(5, 12, rng)
        assert len(matrices) == 12
        for matrix in matrices:
            assert_is_rr_matrix(matrix)

    def test_population_spans_diagonal_strengths(self, rng):
        matrices = random_initial_matrices(6, 30, rng, diagonal_bias=3.0)
        diagonals = np.array([matrix.diagonal().mean() for matrix in matrices])
        assert diagonals.max() - diagonals.min() > 0.2

    def test_reproducible(self):
        first = random_initial_matrices(4, 6, np.random.default_rng(5))
        second = random_initial_matrices(4, 6, np.random.default_rng(5))
        assert all(a == b for a, b in zip(first, second))
