"""Tests for repro.core.result."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import OptimizationResult, ParetoPoint
from repro.emoo.individual import Individual
from repro.exceptions import OptimizationError
from repro.rr.schemes import warner_matrix


def make_point(privacy: float, utility: float) -> ParetoPoint:
    return ParetoPoint(
        matrix=warner_matrix(4, 0.5),
        privacy=privacy,
        utility=utility,
        max_posterior=0.5,
    )


@pytest.fixture
def result() -> OptimizationResult:
    return OptimizationResult(
        points=(make_point(0.3, 1e-4), make_point(0.6, 5e-4), make_point(0.45, 2e-4)),
        n_generations=10,
        n_evaluations=200,
    )


class TestParetoPoint:
    def test_from_individual(self):
        individual = Individual(
            genome=warner_matrix(3, 0.7),
            objectives=np.array([-0.4, 1e-3]),
            metadata={"privacy": 0.4, "utility": 1e-3, "max_posterior": 0.77},
        )
        point = ParetoPoint.from_individual(individual)
        assert point.privacy == pytest.approx(0.4)
        assert point.utility == pytest.approx(1e-3)
        assert point.max_posterior == pytest.approx(0.77)


class TestOptimizationResult:
    def test_points_sorted_by_privacy(self, result):
        privacies = result.privacy_values()
        assert np.all(np.diff(privacies) >= 0)

    def test_len_and_iter(self, result):
        assert len(result) == 3
        assert len(list(result)) == 3

    def test_objectives_shape(self, result):
        assert result.objectives().shape == (3, 2)

    def test_privacy_range(self, result):
        assert result.privacy_range == (pytest.approx(0.3), pytest.approx(0.6))

    def test_privacy_range_of_empty_result_raises(self):
        with pytest.raises(OptimizationError):
            OptimizationResult(points=()).privacy_range

    def test_best_matrix_for_privacy(self, result):
        point = result.best_matrix_for_privacy(0.4)
        assert point.privacy == pytest.approx(0.45)

    def test_best_matrix_for_privacy_unreachable(self, result):
        with pytest.raises(OptimizationError):
            result.best_matrix_for_privacy(0.95)

    def test_best_matrix_for_utility(self, result):
        point = result.best_matrix_for_utility(3e-4)
        assert point.privacy == pytest.approx(0.45)

    def test_best_matrix_for_utility_unreachable(self, result):
        with pytest.raises(OptimizationError):
            result.best_matrix_for_utility(1e-7)

    def test_from_members(self):
        individuals = [
            Individual(
                genome=warner_matrix(3, 0.6),
                objectives=np.array([-0.2, 1e-3]),
                metadata={"privacy": 0.2, "utility": 1e-3, "max_posterior": 0.8},
            )
        ]
        result = OptimizationResult.from_members(individuals, n_generations=3, n_evaluations=30)
        assert len(result) == 1
        assert result.n_generations == 3
        assert result.n_evaluations == 30
