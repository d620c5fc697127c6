"""Tests for repro.emoo.dominance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.emoo.dominance import (
    dominance_matrix_from_arrays,
    dominates,
    non_dominated,
    non_dominated_objectives,
    pareto_ranks_from_arrays,
)
from tests.emoo.conftest import make_individual


def dominance_matrix(population) -> np.ndarray:
    """Constrained-dominance matrix of an ``Individual`` list."""
    if not population:
        return dominance_matrix_from_arrays(np.empty((0, 2)))
    return dominance_matrix_from_arrays(
        np.vstack([individual.objectives for individual in population]),
        np.array([individual.feasible for individual in population]),
    )


class TestDominates:
    def test_strictly_better_dominates(self):
        assert dominates(make_individual([0.0, 0.0]), make_individual([1.0, 1.0]))

    def test_equal_does_not_dominate(self):
        a = make_individual([1.0, 1.0])
        b = make_individual([1.0, 1.0])
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_partial_improvement_dominates(self):
        assert dominates(make_individual([0.0, 1.0]), make_individual([0.5, 1.0]))

    def test_tradeoff_is_incomparable(self):
        a = make_individual([0.0, 1.0])
        b = make_individual([1.0, 0.0])
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_feasible_dominates_infeasible(self):
        feasible = make_individual([5.0, 5.0], feasible=True)
        infeasible = make_individual([0.0, 0.0], feasible=False)
        assert dominates(feasible, infeasible)
        assert not dominates(infeasible, feasible)

    def test_antisymmetry(self, rng):
        for _ in range(50):
            a = make_individual(rng.normal(size=2))
            b = make_individual(rng.normal(size=2))
            assert not (dominates(a, b) and dominates(b, a))


class TestDominanceMatrix:
    def test_matches_pairwise_calls(self, square_population):
        matrix = dominance_matrix(square_population)
        for i, a in enumerate(square_population):
            for j, b in enumerate(square_population):
                assert matrix[i, j] == dominates(a, b)

    def test_diagonal_is_false(self, square_population):
        matrix = dominance_matrix(square_population)
        assert not matrix.diagonal().any()

    def test_empty_population(self):
        assert dominance_matrix([]).shape == (0, 0)


class TestNonDominated:
    def test_square_population(self, square_population):
        front = non_dominated(square_population)
        assert len(front) == 1
        np.testing.assert_allclose(front[0].objectives, [0.0, 0.0])

    def test_tradeoff_front_is_kept(self):
        population = [
            make_individual([0.0, 1.0]),
            make_individual([0.5, 0.5]),
            make_individual([1.0, 0.0]),
            make_individual([0.9, 0.9]),
        ]
        front = non_dominated(population)
        assert len(front) == 3

    def test_empty(self):
        assert non_dominated([]) == []


class TestParetoRanks:
    def test_three_layer_ranking(self):
        objectives = np.array(
            [
                [0.0, 0.0],  # rank 0
                [1.0, 1.0],  # rank 1
                [2.0, 2.0],  # rank 2
                [0.5, 1.5],  # rank 1 (only dominated by rank 0)
            ]
        )
        np.testing.assert_array_equal(pareto_ranks_from_arrays(objectives), [0, 1, 2, 1])

    def test_all_nondominated_get_rank_zero(self):
        objectives = np.array([[float(i), float(-i)] for i in range(5)])
        np.testing.assert_array_equal(pareto_ranks_from_arrays(objectives), 0)

    def test_every_individual_is_ranked(self, rng):
        ranks = pareto_ranks_from_arrays(rng.normal(size=(30, 2)))
        assert np.all(ranks >= 0)


class TestNonDominatedObjectives:
    def test_filters_raw_arrays(self):
        points = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        kept = non_dominated_objectives(points)
        assert kept.shape == (3, 2)
        assert not any(np.allclose(row, [1.0, 1.0]) for row in kept)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            non_dominated_objectives(np.array([1.0, 2.0]))

    def test_empty_input_passthrough(self):
        assert non_dominated_objectives(np.empty((0, 2))).shape == (0, 2)
