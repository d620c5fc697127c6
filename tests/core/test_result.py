"""Tests for repro.core.result."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.front import FrontRow
from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.problem import RRMatrixProblem
from repro.core.result import OptimizationResult
from repro.data.synthetic import normal_distribution
from repro.exceptions import OptimizationError, ValidationError
from repro.io import result_to_dict
from repro.rr.schemes import warner_matrix
from tests.oracles.individual import (
    non_dominated,
    result_from_members,
    result_from_rows,
    row_individual,
    row_individuals,
)


def make_point(privacy: float, utility: float) -> FrontRow:
    return FrontRow(privacy, utility, max_posterior=0.5, matrix=warner_matrix(4, 0.5))


@pytest.fixture
def result() -> OptimizationResult:
    return result_from_rows(
        [make_point(0.3, 1e-4), make_point(0.6, 5e-4), make_point(0.45, 2e-4)],
        n_generations=10,
        n_evaluations=200,
    )


class TestParetoPoint:
    def test_from_individual(self):
        """``population_individual`` turns rows straight into the points the
        frozen ``Individual`` route built from the same rows."""
        problem = RRMatrixProblem(normal_distribution(3), n_records=1000, delta=0.9)
        population = problem.initial_population_soa(6, np.random.default_rng(4))
        front = problem.population_individual(population, np.arange(population.size))
        for row in range(population.size):
            point = front[row]
            (expected,) = result_from_members([row_individual(population, row)]).points
            assert point.matrix.probabilities.tobytes() == expected.matrix.probabilities.tobytes()
            assert not point.matrix.probabilities.flags.writeable
            for field in ("privacy", "utility", "max_posterior"):
                assert type(getattr(point, field)) is float
                assert getattr(point, field) == getattr(expected, field)


class TestOptimizationResult:
    def test_points_sorted_by_privacy(self, result):
        privacies = result.privacy_values()
        assert np.all(np.diff(privacies) >= 0)

    def test_len_and_iter(self, result):
        assert len(result) == 3
        assert len(list(result)) == 3

    def test_privacy_range(self, result):
        assert result.front.privacy_range == (pytest.approx(0.3), pytest.approx(0.6))

    def test_privacy_range_of_empty_result_raises(self):
        with pytest.raises(ValidationError):
            result_from_rows([]).front.privacy_range

    def test_best_matrix_for_privacy(self, result):
        point = result.best_matrix_for_privacy(0.4)
        assert point.privacy == pytest.approx(0.45)

    def test_best_matrix_for_privacy_unreachable(self, result):
        with pytest.raises(OptimizationError):
            result.best_matrix_for_privacy(0.95)

    def test_from_members(self):
        """A finished run's result is built from Ω's member rows: the same
        points, in the same order, as the frozen ``Individual`` route."""
        config = OptRRConfig(population_size=8, archive_size=8, n_generations=3, seed=2)
        optimizer = OptRROptimizer(normal_distribution(4), 2000, config)
        driver = optimizer.driver()
        result = optimizer.run_driver(driver)
        members = driver.optimization.optimal_set.members()
        spectrum = row_individuals(members.take(np.flatnonzero(members.feasible)))
        expected = result_from_members(
            non_dominated(spectrum),
            spectrum,
            n_generations=result.n_generations,
            n_evaluations=result.n_evaluations,
        )
        assert result_to_dict(result, include_optimal_set=True) == result_to_dict(
            expected, include_optimal_set=True
        )
        assert len(result.spectrum) == len(spectrum)
