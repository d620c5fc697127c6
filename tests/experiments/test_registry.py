"""Tests for the experiment registry and specifications."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.registry import available_experiments, get_experiment
from repro.experiments.base import (
    ExperimentResult,
    ExperimentSpec,
    default_generations,
    default_population,
)
from repro.experiments.registry import find_experiments, register_experiment
from repro.experiments.runner import run_experiment


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        experiments = available_experiments()
        expected = {"fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig5c", "fig5d",
                    "thm2", "fact1"}
        assert expected <= set(experiments)

    def test_get_experiment_returns_spec(self):
        spec = get_experiment("fig4a")
        assert spec.paper_artifact == "Figure 4(a)"
        assert spec.parameters["delta"] == 0.6

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("fig99")

    def test_duplicate_registration_rejected(self):
        spec = get_experiment("fact1")
        with pytest.raises(ExperimentError, match="already registered"):
            register_experiment(spec)

    def test_every_spec_has_claim_and_runner(self):
        for experiment_id in available_experiments():
            spec = get_experiment(experiment_id)
            assert spec.paper_claim
            assert spec.description
            assert callable(spec.runner)


class TestFindExperiments:
    def test_exact_ids_pass_through(self):
        assert find_experiments(["fig4a", "thm2"]) == ("fig4a", "thm2")

    def test_glob_expands_sorted(self):
        assert find_experiments(["fig4*"]) == ("fig4a", "fig4b", "fig4c", "fig4d")

    def test_duplicates_collapse_first_wins(self):
        assert find_experiments(["fig4a", "fig4*"]) == (
            "fig4a", "fig4b", "fig4c", "fig4d",
        )

    def test_unmatched_pattern_raises(self):
        with pytest.raises(ExperimentError, match="matches no experiment"):
            find_experiments(["fig9*"])


class TestOverrideValidation:
    def test_run_experiment_rejects_unknown_override(self):
        with pytest.raises(ExperimentError, match="accepted keys"):
            run_experiment("thm2", seed=0, population_size=8)

    def test_error_lists_accepted_keys(self):
        with pytest.raises(ExperimentError, match="'n_categories'"):
            run_experiment("fact1", seed=0, nonsense=True)

    def test_spec_run_validates_too(self):
        spec = get_experiment("fig4a")
        with pytest.raises(ExperimentError, match="does not accept"):
            spec.run(seed=0, delta=0.5)

    def test_front_comparison_specs_accept_budget_overrides(self):
        for experiment_id in ("fig4a", "fig5a", "fig5d"):
            spec = get_experiment(experiment_id)
            assert set(spec.accepted_overrides) == {
                "n_generations",
                "population_size",
                "low_fidelity_fraction",
            }

    def test_filter_overrides_keeps_only_accepted(self):
        spec = get_experiment("thm2")
        filtered = spec.filter_overrides({"n_categories": 6, "n_generations": 10})
        assert filtered == {"n_categories": 6}


class TestEnvironmentOverrides:
    def test_default_generations_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_GENERATIONS", raising=False)
        assert default_generations(123) == 123

    def test_default_generations_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GENERATIONS", "77")
        assert default_generations(123) == 77

    def test_default_generations_rejects_bad_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_GENERATIONS", "-5")
        with pytest.raises(ValueError):
            default_generations()

    def test_default_population_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POPULATION", "12")
        assert default_population() == 12

    def test_default_population_rejects_bad_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_POPULATION", "1")
        with pytest.raises(ValueError):
            default_population()


class TestExperimentResult:
    def test_summary_text_joins_lines(self):
        result = ExperimentResult("x", summary=("line one", "line two"))
        assert result.summary_text() == "line one\nline two"

    def test_spec_run_forwards_overrides(self):
        captured = {}

        def runner(*, seed=0, **overrides):
            captured.update(overrides, seed=seed)
            return ExperimentResult("custom")

        spec = ExperimentSpec(
            experiment_id="custom",
            paper_artifact="n/a",
            description="test",
            paper_claim="n/a",
            parameters={},
            runner=runner,
        )
        spec.run(seed=5, n_generations=3)
        assert captured == {"seed": 5, "n_generations": 3}
