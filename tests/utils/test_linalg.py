"""Tests for repro.utils.linalg."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SingularMatrixError
from repro.exceptions import ValidationError
from repro.utils.linalg import (
    DEFAULT_CONDITION_LIMIT,
    batched_safe_inverses,
    condition_number,
    is_invertible,
    one_norm_condition_estimate,
    safe_inverse,
)
from tests.oracles.scalar import batched_condition_numbers


class TestConditionNumber:
    def test_identity_has_condition_one(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0)

    def test_singular_matrix_has_huge_condition(self):
        singular = np.ones((3, 3))
        assert condition_number(singular) > 1e12


class TestIsInvertible:
    def test_identity_is_invertible(self):
        assert is_invertible(np.eye(3))

    def test_uniform_matrix_is_not(self):
        assert not is_invertible(np.full((3, 3), 1.0 / 3))

    def test_respects_custom_limit(self):
        nearly_singular = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        assert is_invertible(nearly_singular, condition_limit=1e12)
        assert not is_invertible(nearly_singular, condition_limit=1e6)


class TestSafeInverse:
    def test_inverts_identity(self):
        np.testing.assert_allclose(safe_inverse(np.eye(3)), np.eye(3))

    def test_round_trip(self):
        matrix = np.array([[0.8, 0.1], [0.2, 0.9]])
        inverse = safe_inverse(matrix)
        np.testing.assert_allclose(matrix @ inverse, np.eye(2), atol=1e-12)

    def test_raises_on_singular(self):
        with pytest.raises(SingularMatrixError):
            safe_inverse(np.ones((3, 3)))


class TestBatchedConditionNumbers:
    def test_matches_scalar_per_matrix(self):
        rng = np.random.default_rng(0)
        stack = rng.dirichlet(np.ones(5), size=(6, 5)).transpose(0, 2, 1)
        batched = batched_condition_numbers(stack)
        for index in range(stack.shape[0]):
            assert batched[index] == pytest.approx(condition_number(stack[index]))

    def test_singular_member_gets_inf(self):
        stack = np.stack([np.eye(3), np.ones((3, 3)) / 3.0])
        batched = batched_condition_numbers(stack)
        assert batched[0] == pytest.approx(1.0)
        assert batched[1] > 1e12 or np.isinf(batched[1])

    def test_empty_stack(self):
        assert batched_condition_numbers(np.empty((0, 3, 3))).size == 0

    def test_rejects_non_stack(self):
        with pytest.raises(ValidationError):
            batched_condition_numbers(np.eye(3))


class TestOneNormConditionEstimate:
    def test_identity_estimate_is_one(self):
        assert one_norm_condition_estimate(np.eye(3), np.eye(3)) == pytest.approx(1.0)

    def test_scalar_and_stack_forms_agree(self):
        rng = np.random.default_rng(3)
        stack = rng.dirichlet(np.ones(4) * 2, size=(6, 4)).transpose(0, 2, 1)
        inverses = np.linalg.inv(stack)
        batched = one_norm_condition_estimate(stack, inverses)
        for index in range(stack.shape[0]):
            scalar = one_norm_condition_estimate(stack[index], inverses[index])
            assert float(batched[index]) == pytest.approx(float(scalar))

    def test_bounds_two_norm_condition_within_factor_n(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            matrix = rng.dirichlet(np.ones(5), size=5).T
            estimate = float(one_norm_condition_estimate(matrix, np.linalg.inv(matrix)))
            cond2 = condition_number(matrix)
            assert estimate / 5.0 <= cond2 * (1 + 1e-9)
            assert cond2 / 5.0 <= estimate * (1 + 1e-9)


def _near_singular_stochastic(t: float) -> np.ndarray:
    """Column-stochastic matrix whose second column is a ``t``-blend away from
    the first — near-singular for tiny ``t``."""
    base = np.array([0.5, 0.3, 0.2])
    other = np.array([0.2, 0.5, 0.3])
    matrix = np.column_stack([base, (1 - t) * base + t * other, [0.1, 0.1, 0.8]])
    return matrix / matrix.sum(axis=0)


class TestDivergenceBandRegression:
    """The former 1-norm/2-norm divergence band (PR 1's documented wart).

    The batch path always classified by the 1-norm estimate while the scalar
    path used the SVD 2-norm condition number; the two bound each other only
    within a factor of ``n``, so matrices whose estimates straddle the
    condition limit were classified differently.  Classification is now
    unified on the 1-norm estimate, so every path must agree for every matrix
    — in particular inside the band.
    """

    BLENDS = np.geomspace(1e-13, 1e-10, 60)

    def _band_matrices(self):
        found = []
        for t in self.BLENDS:
            matrix = _near_singular_stochastic(float(t))
            try:
                estimate = float(
                    one_norm_condition_estimate(matrix, np.linalg.inv(matrix))
                )
            except np.linalg.LinAlgError:
                continue
            if (condition_number(matrix) < DEFAULT_CONDITION_LIMIT) != (
                estimate < DEFAULT_CONDITION_LIMIT
            ):
                found.append(matrix)
        return found

    def test_band_is_nonempty(self):
        # Guard: the scan actually produces matrices where the old scalar
        # (2-norm) rule and the batch (1-norm) rule disagree.
        assert self._band_matrices()

    def test_scalar_and_batch_agree_inside_the_band(self):
        for matrix in self._band_matrices():
            scalar = is_invertible(matrix)
            _, invertible = batched_safe_inverses(matrix[None])
            assert scalar == bool(invertible[0])
            if scalar:
                safe_inverse(matrix)
            else:
                with pytest.raises(SingularMatrixError):
                    safe_inverse(matrix)

    def test_scalar_and_batch_agree_across_the_whole_scan(self):
        stack = np.stack([_near_singular_stochastic(float(t)) for t in self.BLENDS])
        _, invertible = batched_safe_inverses(stack)
        for index in range(stack.shape[0]):
            assert bool(invertible[index]) == is_invertible(stack[index])


class TestBatchedSafeInverses:
    def test_round_trip_for_invertible_members(self):
        rng = np.random.default_rng(1)
        stack = rng.dirichlet(np.ones(4) * 3, size=(5, 4)).transpose(0, 2, 1)
        inverses, invertible = batched_safe_inverses(stack)
        assert invertible.all()
        for index in range(stack.shape[0]):
            np.testing.assert_allclose(
                stack[index] @ inverses[index], np.eye(4), atol=1e-9
            )

    def test_singular_members_are_masked_with_zero_rows(self):
        stack = np.stack([np.eye(3), np.ones((3, 3)) / 3.0, np.eye(3)])
        inverses, invertible = batched_safe_inverses(stack)
        np.testing.assert_array_equal(invertible, [True, False, True])
        np.testing.assert_array_equal(inverses[1], np.zeros((3, 3)))

    def test_classification_matches_is_invertible(self):
        rng = np.random.default_rng(2)
        matrices = [rng.dirichlet(np.ones(4), size=4).T for _ in range(8)]
        matrices.append(np.full((4, 4), 0.25))
        duplicated = rng.dirichlet(np.ones(4), size=4).T
        duplicated[:, 1] = duplicated[:, 0]
        matrices.append(duplicated)
        stack = np.stack(matrices)
        _, invertible = batched_safe_inverses(stack)
        for index in range(stack.shape[0]):
            assert invertible[index] == is_invertible(stack[index])

    def test_empty_stack(self):
        inverses, invertible = batched_safe_inverses(np.empty((0, 2, 2)))
        assert inverses.shape == (0, 2, 2)
        assert invertible.size == 0
