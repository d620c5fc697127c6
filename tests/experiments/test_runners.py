"""Tests for the per-figure experiment runners (small optimization budgets).

These tests execute every paper experiment end to end with a reduced budget:
the goal is to verify the plumbing (fronts produced, metrics populated,
summaries formatted), not to reproduce the paper-quality fronts — the
benchmark harness does that with larger budgets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.common import (
    FrontComparisonWorkload,
    empirical_front_mse,
    optimize_front,
    run_front_comparison,
    warner_front,
)
from repro.experiments.factsheet import run_fact1
from repro.experiments.runner import run_experiment
from repro.experiments.theorem2 import run_theorem2
from repro.data.synthetic import normal_distribution

#: Reduced budget shared by all runner tests.
FAST = {"n_generations": 40, "population_size": 16}


class TestCommonHelpers:
    def test_optimize_front_returns_front_and_result(self, normal_prior):
        front, result = optimize_front(normal_prior, 10_000, 0.8, seed=1, **FAST)
        assert not front.is_empty
        assert result.n_generations == FAST["n_generations"]

    def test_warner_front_respects_bound(self, normal_prior):
        bounded = warner_front(normal_prior, 10_000, 0.7)
        unbounded = warner_front(normal_prior, 10_000, None)
        assert bounded.privacy_range[0] > unbounded.privacy_range[0]

    def test_empirical_front_mse_produces_positive_mse(self, normal_prior):
        front, _ = optimize_front(normal_prior, 5_000, 0.8, seed=0, **FAST)
        empirical = empirical_front_mse(front, normal_prior, 5_000, n_trials=1, seed=0)
        assert not empirical.is_empty
        assert np.all(empirical.utility > 0)

    def test_run_front_comparison_structure(self):
        workload = FrontComparisonWorkload(
            experiment_id="unit-test",
            prior=normal_distribution(8),
            n_records=5_000,
            delta=0.8,
            paper_claim="test claim",
        )
        result = run_front_comparison(workload, seed=0, **FAST)
        assert isinstance(result, ExperimentResult)
        assert set(result.fronts) == {"optrr", "warner"}
        assert result.comparison is not None
        assert "optrr_min_privacy" in result.metrics
        assert result.summary


@pytest.mark.parametrize("experiment_id", ["fig4a", "fig4c", "fig5a", "fig5b"])
class TestFrontComparisonExperiments:
    def test_runs_and_produces_fronts(self, experiment_id):
        result = run_experiment(experiment_id, seed=0, **FAST)
        assert result.experiment_id == experiment_id
        assert not result.fronts["optrr"].is_empty
        assert not result.fronts["warner"].is_empty
        assert result.metrics["n_generations"] == FAST["n_generations"]
        assert "[REPRODUCED]" in result.summary[0] or "[DIVERGED]" in result.summary[0]


class TestFig5c:
    def test_adult_workload_runs(self):
        result = run_experiment("fig5c", seed=0, **FAST)
        assert result.fronts["optrr"].privacy_range[1] <= 1.0
        assert result.metrics["warner_min_privacy"] > 0


class TestFig5d:
    def test_iterative_estimator_experiment(self):
        result = run_experiment("fig5d", seed=0, **FAST)
        assert result.experiment_id == "fig5d"
        assert not result.fronts["optrr"].is_empty
        # The empirically re-measured utilities must be positive MSE values.
        assert np.all(result.fronts["optrr"].utility > 0)


class TestTheorem2:
    def test_equivalence_is_reproduced(self):
        result = run_theorem2()
        assert result.reproduced
        assert result.metrics["max_matrix_gap"] < 1e-9
        assert set(result.fronts) == {"warner", "uniform-perturbation", "frapp"}

    def test_fronts_have_identical_shape(self):
        result = run_theorem2(n_categories=6)
        warner = result.fronts["warner"]
        up = result.fronts["uniform-perturbation"]
        assert abs(len(warner) - len(up)) <= 2


class TestFact1:
    def test_paper_value_reproduced(self):
        result = run_fact1()
        assert result.reproduced
        assert result.metrics["log10_combinations"] == pytest.approx(126.3, abs=0.1)

    def test_small_cases_exact(self):
        result = run_fact1()
        assert result.metrics["small_case_n2_d4"] == 25.0
        assert result.metrics["small_case_n3_d3"] == 1000.0
