"""Tests for repro.emoo.selection (environmental + mating selection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.emoo.density import pairwise_distances
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
    truncate_indices,
)
from repro.exceptions import OptimizationError


def select(points, archive_size: int) -> set[tuple[float, ...]]:
    """Objective rows environmental selection keeps from ``points``."""
    objectives = np.asarray(points, dtype=float)
    _, _, fitness = spea2_fitness_from_arrays(objectives)
    chosen = environmental_selection_indices(fitness, archive_size, objectives=objectives)
    assert chosen.size == archive_size
    return {tuple(row) for row in objectives[chosen]}


class TestEnvironmentalSelection:
    def test_keeps_all_nondominated_when_they_fit(self):
        kept = select([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [2.0, 2.0]], archive_size=3)
        assert (2.0, 2.0) not in kept  # dominated

    def test_fills_with_best_dominated_when_underfull(self):
        # (0, 0) is the only non-dominated point.
        kept = select([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]], archive_size=2)
        assert (0.0, 0.0) in kept
        assert (1.0, 1.0) in kept  # the better dominated point

    def test_truncates_when_overfull_and_keeps_extremes(self):
        # Ten non-dominated points on a line; truncation should keep a spread
        # including both extremes.
        kept = sorted(select([[i / 9.0, 1.0 - i / 9.0] for i in range(10)], archive_size=4))
        assert kept[0] == (0.0, 1.0)
        assert kept[-1] == (1.0, 0.0)

    def test_exact_fit_returns_front(self):
        kept = select([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], archive_size=2)
        assert kept == {(0.0, 1.0), (1.0, 0.0)}

    def test_empty_union_raises(self):
        with pytest.raises(OptimizationError):
            environmental_selection_indices(np.empty(0), archive_size=3)


class TestTruncateArchive:
    def test_no_truncation_needed(self):
        distances = pairwise_distances(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(truncate_indices(distances, 5), [0, 1])

    def test_removes_most_crowded_first(self):
        objectives = np.array([[0.0, 1.0], [0.01, 0.99], [1.0, 0.0]])
        survivors = truncate_indices(pairwise_distances(objectives), 2)
        assert 2 in survivors
        # Exactly one of the two crowded points survives.
        assert len(set(survivors.tolist()) & {0, 1}) == 1


class TestBinaryTournament:
    def test_prefers_lower_fitness(self, rng):
        fitness = np.array([0.0, 1.5])  # row 0 dominates row 1
        winners = binary_tournament_indices(fitness, 200, rng)
        assert np.count_nonzero(winners == 0) > 150  # good wins every mixed tournament

    def test_returns_requested_count(self, rng):
        assert binary_tournament_indices(np.arange(4.0), 7, rng).size == 7

    def test_empty_pool_raises(self, rng):
        with pytest.raises(OptimizationError):
            binary_tournament_indices(np.empty(0), 3, rng)
