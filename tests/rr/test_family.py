"""Tests for repro.rr.family."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.rr.family import (
    FrappFamily,
    UniformPerturbationFamily,
    WarnerFamily,
    family_names,
    scheme_family,
)
from repro.rr.matrix import RRMatrix


class TestWarnerFamily:
    def test_grid_covers_unit_interval(self):
        family = WarnerFamily(5)
        grid = family.parameter_grid(11)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert grid.size == 11

    def test_matrices_materialisation(self):
        family = WarnerFamily(4)
        matrices = family.matrices(5)
        assert matrices.shape == (5, 4, 4)
        np.testing.assert_allclose(matrices.sum(axis=1), 1.0)

    def test_default_sweep_matches_paper(self):
        family = WarnerFamily(3)
        assert len(family.matrices()) == 1001

    def test_name(self):
        assert WarnerFamily(3).name == "warner"


class TestUniformPerturbationFamily:
    def test_endpoints(self):
        family = UniformPerturbationFamily(4)
        matrices = family.matrices(3)
        np.testing.assert_allclose(matrices[0], 0.25)
        np.testing.assert_allclose(matrices[-1], np.eye(4))


class TestFrappFamily:
    def test_grid_is_positive(self):
        family = FrappFamily(5)
        grid = family.parameter_grid(10)
        assert np.all(grid > 0)

    def test_diagonal_spans_range(self):
        family = FrappFamily(5)
        matrices = family.matrices(50)
        diagonals = np.array([matrix[0, 0] for matrix in matrices])
        assert diagonals.min() == pytest.approx(1.0 / 5, abs=1e-6)
        assert diagonals.max() > 0.99


def _reference_matrix(family, parameter: float) -> np.ndarray:
    """One family member built on its own, from the scheme's closed form
    (Section III-B), through the validating :class:`RRMatrix` constructor."""
    n = family.n_categories
    if isinstance(family, WarnerFamily):
        diagonal, off_diagonal = parameter, (1.0 - parameter) / (n - 1)
    elif isinstance(family, UniformPerturbationFamily):
        off_diagonal = (1.0 - parameter) / n
        diagonal = parameter + off_diagonal
    else:
        denominator = parameter + n - 1
        diagonal, off_diagonal = parameter / denominator, 1.0 / denominator
    matrix = np.full((n, n), off_diagonal)
    np.fill_diagonal(matrix, diagonal)
    return RRMatrix(matrix).probabilities


@pytest.mark.parametrize("family_type", [WarnerFamily, UniformPerturbationFamily, FrappFamily])
@pytest.mark.parametrize("n_categories, n_points", [(2, 7), (10, 1001), (64, 101)])
def test_stack_rows_equal_the_per_matrix_constructor(family_type, n_categories, n_points):
    """``matrices`` builds one validated stack whose every row is bit for bit
    ``matrix`` for the same grid parameter and the closed-form matrix."""
    family = family_type(n_categories)
    stack = family.matrices(n_points)
    grid = family.parameter_grid(n_points)
    assert stack.shape == (n_points, n_categories, n_categories)
    for row, parameter in zip(stack, grid):
        assert row.tobytes() == family.matrix(parameter).probabilities.tobytes()
        assert row.tobytes() == _reference_matrix(family, parameter).tobytes()


@pytest.mark.parametrize(
    "family_type, bad", [(WarnerFamily, 1.5), (UniformPerturbationFamily, -0.1), (FrappFamily, 0.0)]
)
def test_stack_rejects_out_of_range_parameters(family_type, bad):
    with pytest.raises(ValidationError):
        family_type(4).stack(np.array([0.5, bad]))
    with pytest.raises(ValidationError):
        family_type(4).stack(np.array([np.nan]))


class TestSchemeFamilyLookup:
    def test_lookup_by_name(self):
        assert isinstance(scheme_family("warner", 4), WarnerFamily)
        assert isinstance(scheme_family("up", 4), UniformPerturbationFamily)
        assert isinstance(scheme_family("frapp", 4), FrappFamily)

    def test_lookup_is_case_insensitive(self):
        assert isinstance(scheme_family("WARNER", 4), WarnerFamily)

    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="unknown scheme family"):
            scheme_family("laplace", 4)

    def test_family_names(self):
        assert set(family_names()) == {"warner", "uniform-perturbation", "frapp"}

    def test_requires_two_categories(self):
        with pytest.raises(ValidationError):
            WarnerFamily(1)
