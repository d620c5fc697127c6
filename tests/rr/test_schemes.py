"""Tests for repro.rr.schemes (Warner, UP, FRAPP constructors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import RRMatrixError, ValidationError
from repro.rr.schemes import (
    frapp_matrix,
    uniform_perturbation_matrix,
    warner_equivalent_p,
    warner_matrix,
    warner_stack,
)
from repro.rr.matrix import RRMatrix


def identity_matrix(n_categories: int) -> RRMatrix:
    """The no-disguise matrix (the paper's ``M1`` example)."""
    return RRMatrix.identity(n_categories)


def total_randomization_matrix(n_categories: int) -> RRMatrix:
    """The full-randomization matrix (the paper's ``M2`` example)."""
    return RRMatrix.uniform(n_categories)


class TestWarner:
    def test_structure(self):
        matrix = warner_matrix(4, 0.7)
        np.testing.assert_allclose(matrix.diagonal(), 0.7)
        assert matrix[0, 1] == pytest.approx(0.3 / 3)

    def test_p_one_is_identity(self):
        assert warner_matrix(5, 1.0) == identity_matrix(5)

    def test_p_one_over_n_is_total_randomization(self):
        assert warner_matrix(5, 0.2).isclose(total_randomization_matrix(5))

    def test_columns_sum_to_one(self):
        matrix = warner_matrix(7, 0.3)
        np.testing.assert_allclose(matrix.probabilities.sum(axis=0), 1.0)

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValidationError):
            warner_matrix(4, 1.4)

    def test_rejects_single_category(self):
        with pytest.raises(RRMatrixError):
            warner_matrix(1, 0.5)


def _warner_one_by_one(n: int, p: float) -> np.ndarray:
    """The per-matrix construction: a full off-diagonal matrix, its diagonal
    filled in, validated by the :class:`RRMatrix` constructor."""
    matrix = np.full((n, n), (1.0 - p) / (n - 1))
    np.fill_diagonal(matrix, p)
    return RRMatrix(matrix).probabilities


class TestWarnerStack:
    @pytest.mark.parametrize("n", [2, 3, 10, 64])
    @pytest.mark.parametrize("count", [1, 2, 1001])
    def test_equals_the_per_matrix_stack_bitwise(self, n, count):
        retention = np.linspace(0.0, 1.0, count)
        stack = warner_stack(n, retention)
        expected = np.stack([_warner_one_by_one(n, float(p)) for p in retention])
        assert stack.shape == (count, n, n) and stack.dtype == np.float64
        assert stack.tobytes() == expected.tobytes()
        middle = count // 2
        single = warner_matrix(n, float(retention[middle])).probabilities
        assert stack[middle].tobytes() == single.tobytes()

    def test_rejects_single_category(self):
        with pytest.raises(RRMatrixError):
            warner_stack(1, [0.5])

    @pytest.mark.parametrize("values", [[0.5, 1.5], [-0.1], [np.nan], [[0.5]]])
    def test_rejects_bad_retention_values(self, values):
        with pytest.raises(ValidationError):
            warner_stack(4, values)

    def test_empty_sweep(self):
        assert warner_stack(3, []).shape == (0, 3, 3)


class TestUniformPerturbation:
    def test_structure(self):
        matrix = uniform_perturbation_matrix(4, 0.6)
        assert matrix[0, 0] == pytest.approx(0.6 + 0.1)
        assert matrix[1, 0] == pytest.approx(0.1)

    def test_q_zero_is_total_randomization(self):
        assert uniform_perturbation_matrix(5, 0.0).isclose(total_randomization_matrix(5))

    def test_q_one_is_identity(self):
        assert uniform_perturbation_matrix(5, 1.0).isclose(identity_matrix(5))

    def test_columns_sum_to_one(self):
        matrix = uniform_perturbation_matrix(6, 0.35)
        np.testing.assert_allclose(matrix.probabilities.sum(axis=0), 1.0)


class TestFrapp:
    def test_structure(self):
        matrix = frapp_matrix(4, 7.0)
        assert matrix[0, 0] == pytest.approx(7.0 / 10.0)
        assert matrix[1, 0] == pytest.approx(1.0 / 10.0)

    def test_gamma_one_is_total_randomization(self):
        assert frapp_matrix(5, 1.0).isclose(total_randomization_matrix(5))

    def test_large_gamma_approaches_identity(self):
        matrix = frapp_matrix(5, 1e9)
        assert matrix.diagonal().min() > 0.999_999

    def test_rejects_non_positive_gamma(self):
        with pytest.raises(RRMatrixError):
            frapp_matrix(5, 0.0)
        with pytest.raises(RRMatrixError):
            frapp_matrix(5, -2.0)


class TestTheorem2Equivalence:
    """Theorem 2: the three families are reparameterisations of each other."""

    @pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_up_equals_warner(self, q):
        n = 6
        p = warner_equivalent_p(n, q=q)
        assert uniform_perturbation_matrix(n, q).isclose(warner_matrix(n, p))

    @pytest.mark.parametrize("gamma", [1.0, 2.5, 10.0, 100.0])
    def test_frapp_equals_warner(self, gamma):
        n = 6
        p = warner_equivalent_p(n, gamma=gamma)
        assert frapp_matrix(n, gamma).isclose(warner_matrix(n, p))

    def test_equivalent_p_requires_exactly_one_parameter(self):
        with pytest.raises(RRMatrixError):
            warner_equivalent_p(5)
        with pytest.raises(RRMatrixError):
            warner_equivalent_p(5, q=0.5, gamma=2.0)
