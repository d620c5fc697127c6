"""Tests for the weighted-sum GA ablation baseline (benchmarks/baselines/weighted_sum.py)."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.baselines.weighted_sum import WeightedSumGA, WeightedSumSettings
from repro.exceptions import ValidationError


class TestWeightedSumGA:
    def test_finds_near_optimal_solutions_per_weight(self, sphere_problem):
        settings = WeightedSumSettings(
            population_size=20, n_generations=15, n_weights=5
        )
        result = WeightedSumGA(sphere_problem, settings, seed=2).run()
        assert len(result.best_per_weight) == 5
        # Every winner should be near the Pareto set (x in [0, 1]).
        xs = result.best_per_weight.metadata["x"]
        assert np.all((-0.15 <= xs) & (xs <= 1.15))

    def test_extreme_weights_find_extreme_solutions(self, sphere_problem):
        settings = WeightedSumSettings(population_size=24, n_generations=25, n_weights=3)
        result = WeightedSumGA(sphere_problem, settings, seed=7).run()
        xs = result.best_per_weight.metadata["x"]
        # weight 1 minimises f1 = x^2 -> x near 0; weight 0 minimises f2 -> x near 1.
        assert min(xs) < 0.2
        assert max(xs) > 0.8

    def test_front_is_subset_of_winners(self, sphere_problem):
        settings = WeightedSumSettings(population_size=16, n_generations=10, n_weights=4)
        result = WeightedSumGA(sphere_problem, settings, seed=1).run()
        winners = result.best_per_weight
        # The front is the winner rows no other winner dominates, in row order
        # (every sphere row is feasible).
        objectives = winners.objectives
        kept = [
            row
            for row, point in enumerate(objectives)
            if not any(np.all(other <= point) and np.any(other < point) for other in objectives)
        ]
        assert result.front.genomes.tobytes() == winners.genomes[kept].tobytes()
        assert result.front.objectives.tobytes() == winners.objectives[kept].tobytes()

    def test_front_is_much_sparser_than_weight_count(self, sphere_problem):
        """The weighted-sum approach yields at most one point per weight —
        the sparsity problem the paper cites as a reason to use EMOO."""
        settings = WeightedSumSettings(population_size=16, n_generations=10, n_weights=7)
        result = WeightedSumGA(sphere_problem, settings, seed=0).run()
        assert len(result.front) <= 7

    def test_settings_validation(self):
        with pytest.raises(ValidationError):
            WeightedSumSettings(n_weights=0)
        with pytest.raises(ValidationError):
            WeightedSumSettings(elite_fraction=1.5)
