"""Tests for repro.emoo.dominance and the NSGA-II baseline's non-dominated
sorting (benchmarks/baselines/nsga2.py)."""

from __future__ import annotations

import numpy as np

from benchmarks.baselines.nsga2 import pareto_ranks_from_arrays
from repro.emoo.dominance import dominance_matrix_from_arrays, non_dominated_indices


def dominates(first, second, feasible=(True, True)) -> bool:
    """Whether ``first`` dominates ``second``, read off their two-row
    constrained-dominance matrix."""
    matrix = dominance_matrix_from_arrays(
        np.array([first, second], dtype=float), np.array(feasible)
    )
    return bool(matrix[0, 1])


def dominates_by_definition(a, b, feasible_a=True, feasible_b=True) -> bool:
    """Definition 5.1 with feasibility first, one pair at a time."""
    if feasible_a != feasible_b:
        return feasible_a
    return bool(np.all(a <= b) and np.any(a < b))


class TestDominates:
    def test_strictly_better_dominates(self):
        assert dominates([0.0, 0.0], [1.0, 1.0])

    def test_equal_does_not_dominate(self):
        assert not dominates([1.0, 1.0], [1.0, 1.0])

    def test_partial_improvement_dominates(self):
        assert dominates([0.0, 1.0], [0.5, 1.0])

    def test_tradeoff_is_incomparable(self):
        assert not dominates([0.0, 1.0], [1.0, 0.0])
        assert not dominates([1.0, 0.0], [0.0, 1.0])

    def test_feasible_dominates_infeasible(self):
        assert dominates([5.0, 5.0], [0.0, 0.0], feasible=(True, False))
        assert not dominates([0.0, 0.0], [5.0, 5.0], feasible=(False, True))

    def test_antisymmetry(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=(2, 2))
            assert not (dominates(a, b) and dominates(b, a))


class TestDominanceMatrix:
    def test_matches_pairwise_calls(self, square_objectives, rng):
        feasible = rng.random(len(square_objectives)) < 0.6
        matrix = dominance_matrix_from_arrays(square_objectives, feasible)
        for i, a in enumerate(square_objectives):
            for j, b in enumerate(square_objectives):
                expected = i != j and dominates_by_definition(a, b, feasible[i], feasible[j])
                assert matrix[i, j] == expected

    def test_diagonal_is_false(self, square_objectives):
        matrix = dominance_matrix_from_arrays(square_objectives)
        assert not matrix.diagonal().any()

    def test_empty_population(self):
        assert dominance_matrix_from_arrays(np.empty((0, 2))).shape == (0, 0)


class TestNonDominated:
    def test_square_population(self, square_objectives):
        assert non_dominated_indices(square_objectives).tolist() == [2]

    def test_tradeoff_front_is_kept(self):
        objectives = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.9, 0.9]])
        assert non_dominated_indices(objectives).tolist() == [0, 1, 2]

    def test_infeasible_rows_leave_the_front(self):
        objectives = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        feasible = np.array([False, True, True])
        assert non_dominated_indices(objectives, feasible).tolist() == [1]

    def test_empty(self):
        assert non_dominated_indices(np.empty((0, 2))).size == 0


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
