"""Tests for the NSGA-II ablation baseline (benchmarks/baselines/nsga2.py)."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.baselines.nsga2 import NSGA2, NSGA2Settings


class TestNSGA2Run:
    def test_finds_the_analytic_front(self, sphere_problem):
        algorithm = NSGA2(
            sphere_problem,
            NSGA2Settings(population_size=24),
            n_generations=40,
            seed=4,
        )
        result = algorithm.run()
        assert len(result.front) > 5
        for f1, f2 in result.front.objectives:
            assert np.sqrt(f1) + np.sqrt(f2) == pytest.approx(1.0, abs=0.05)

    def test_population_size_is_maintained(self, sphere_problem):
        result = NSGA2(
            sphere_problem, NSGA2Settings(population_size=16), n_generations=10, seed=0
        ).run()
        assert len(result.population) == 16
        assert result.ranks.shape == result.crowding.shape == (16,)

    def test_reproducible_with_seed(self, sphere_problem):
        settings = NSGA2Settings(population_size=12)
        first = NSGA2(sphere_problem, settings, n_generations=6, seed=9).run()
        second = NSGA2(sphere_problem, settings, n_generations=6, seed=9).run()
        assert first.front.objectives.tobytes() == second.front.objectives.tobytes()

    def test_front_spreads_over_the_tradeoff(self, sphere_problem):
        result = NSGA2(
            sphere_problem,
            NSGA2Settings(population_size=30),
            n_generations=40,
            seed=5,
        ).run()
        xs = np.sort(result.front.metadata["x"])
        assert xs[0] < 0.2
        assert xs[-1] > 0.8

    def test_evaluation_count_accounting(self, sphere_problem):
        result = NSGA2(
            sphere_problem, NSGA2Settings(population_size=10), n_generations=6, seed=2
        ).run()
        # Initial population + one offspring population per generation.
        assert result.n_evaluations == 10 + 6 * 10
        assert result.n_generations == 6

    def test_front_is_the_rank_zero_rows(self, sphere_problem):
        result = NSGA2(
            sphere_problem, NSGA2Settings(population_size=12), n_generations=5, seed=3
        ).run()
        front = result.population.objectives[result.ranks == 0]
        assert result.front.objectives.tobytes() == front.tobytes()
