"""Tests for the campaign orchestration subsystem.

Budgets are kept tiny (a handful of generations on small populations): the
tests verify orchestration — grid planning, caching, parallel dispatch,
deterministic aggregation — not front quality.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.exceptions import ExperimentError
from repro.experiments.campaign import (
    CampaignCache,
    CampaignSpec,
    CampaignTask,
    plan_campaign,
    run_campaign,
)
from repro.io import experiment_result_to_dict
from repro.experiments.runner import run_experiment

#: Tiny budget shared by every campaign test.
FAST = {"n_generations": 5, "population_size": 8}


class TestPlanCampaign:
    def test_glob_and_id_resolution(self):
        spec = plan_campaign(["fig4a", "fact1"], [0, 1])
        assert spec.experiments == ("fig4a", "fact1")
        assert spec.seeds == (0, 1)

    def test_grid_order_is_experiments_outer_seeds_inner(self):
        spec = plan_campaign(["fig4a", "fact1"], [3, 7], FAST)
        cells = [(task.experiment_id, task.seed) for task in spec.tasks()]
        assert cells == [("fig4a", 3), ("fig4a", 7), ("fact1", 3), ("fact1", 7)]

    def test_overrides_filtered_per_experiment(self, monkeypatch):
        monkeypatch.delenv("REPRO_POPULATION", raising=False)
        spec = plan_campaign(["fig4a", "fact1"], [0], {"n_generations": 5})
        by_experiment = {task.experiment_id: task for task in spec.tasks()}
        # Unset budget keys the experiment accepts are materialized from the
        # environment-aware defaults so the cache key records the budget the
        # task actually ran under (here: the default population size).
        assert dict(by_experiment["fig4a"].overrides) == {
            "n_generations": 5,
            "population_size": 40,
        }
        assert by_experiment["fact1"].overrides == ()

    def test_override_unknown_everywhere_rejected(self):
        with pytest.raises(ExperimentError, match="not accepted by any"):
            plan_campaign(["fig4a"], [0], {"bogus_knob": 1})

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ExperimentError, match="at least one seed"):
            plan_campaign(["fig4a"], [])

    def test_unmatched_pattern_rejected(self):
        with pytest.raises(ExperimentError, match="matches no experiment"):
            plan_campaign(["nope*"], [0])


class TestCacheKeys:
    def test_distinct_across_grid_dimensions(self):
        base = CampaignTask("fig4a", 0, (("n_generations", 5),))
        assert base.cache_key() != CampaignTask("fig4b", 0, base.overrides).cache_key()
        assert base.cache_key() != CampaignTask("fig4a", 1, base.overrides).cache_key()
        assert base.cache_key() != CampaignTask("fig4a", 0, ()).cache_key()

    def test_stable_for_equal_tasks(self):
        task = CampaignTask("fig4a", 0, (("n_generations", 5),))
        assert task.cache_key() == CampaignTask("fig4a", 0, (("n_generations", 5),)).cache_key()

    def test_version_is_part_of_the_key(self, monkeypatch):
        task = CampaignTask("fig4a", 0)
        before = task.cache_key()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert task.cache_key() != before


class TestCampaignCache:
    def test_store_then_load_round_trips(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        task = CampaignTask("fact1", 0)
        result = run_experiment("fact1", seed=0)
        cache.store(task, experiment_result_to_dict(result))
        loaded = cache.load_result(task)
        assert loaded is not None
        assert loaded.metrics == dict(result.metrics)
        assert loaded.reproduced == result.reproduced

    def test_miss_returns_none(self, tmp_path):
        cache = CampaignCache(tmp_path)
        assert cache.load_result(CampaignTask("fact1", 123)) is None

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        task = CampaignTask("fact1", 0)
        cache.path_for(task).write_text("{not json", encoding="utf-8")
        assert cache.load_result(task) is None

    def test_wrong_document_type_counts_as_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        task = CampaignTask("fact1", 0)
        cache.path_for(task).write_text(json.dumps({"type": "rr_matrix"}), encoding="utf-8")
        assert cache.load_result(task) is None

    def test_structurally_invalid_entry_counts_as_miss(self, tmp_path):
        # Right type but missing required fields must re-run, not crash.
        cache = CampaignCache(tmp_path)
        task = CampaignTask("fact1", 0)
        cache.path_for(task).write_text(
            json.dumps({"type": "experiment_result", "format_version": 1}),
            encoding="utf-8",
        )
        assert cache.load_result(task) is None
        campaign = run_campaign(["fact1"], seeds=[0], cache_dir=tmp_path)
        assert campaign.n_cache_hits == 0


class TestRunCampaign:
    def test_records_follow_grid_order_and_aggregate(self):
        result = run_campaign(["fig4a", "fact1"], seeds=[0, 1], overrides=FAST)
        assert [(r.task.experiment_id, r.task.seed) for r in result.records] == [
            ("fig4a", 0), ("fig4a", 1), ("fact1", 0), ("fact1", 1),
        ]
        assert list(result.aggregates) == ["fig4a", "fact1"]
        assert result.aggregates["fig4a"].seeds == (0, 1)
        assert 0.0 <= result.aggregates["fig4a"].reproduction_rate <= 1.0
        assert result.n_cache_hits == 0

    def test_results_match_direct_run_experiment(self):
        campaign = run_campaign(["fact1"], seeds=[0], overrides=None)
        direct = run_experiment("fact1", seed=0)
        record = campaign.records[0]
        assert record.result.metrics == dict(direct.metrics)
        assert record.result.reproduced == direct.reproduced

    def test_second_run_hits_cache_and_matches(self, tmp_path):
        cold = run_campaign(["fig4a"], seeds=[0, 1], overrides=FAST, cache_dir=tmp_path)
        warm = run_campaign(["fig4a"], seeds=[0, 1], overrides=FAST, cache_dir=tmp_path)
        assert cold.n_cache_hits == 0
        assert warm.n_cache_hits == 2
        assert warm.aggregate_json() == cold.aggregate_json()

    def test_seed_extension_reuses_existing_entries(self, tmp_path):
        run_campaign(["fact1"], seeds=[0], cache_dir=tmp_path)
        extended = run_campaign(["fact1"], seeds=[0, 1], cache_dir=tmp_path)
        assert extended.n_cache_hits == 1

    def test_environment_budget_is_part_of_the_cache_key(self, monkeypatch, tmp_path):
        # REPRO_GENERATIONS/REPRO_POPULATION change the computed fronts, so a
        # budget change must miss the cache instead of replaying stale runs.
        monkeypatch.setenv("REPRO_GENERATIONS", "5")
        monkeypatch.setenv("REPRO_POPULATION", "8")
        first = run_campaign(["fig4a"], seeds=[0], cache_dir=tmp_path)
        monkeypatch.setenv("REPRO_GENERATIONS", "6")
        second = run_campaign(["fig4a"], seeds=[0], cache_dir=tmp_path)
        assert second.n_cache_hits == 0
        assert second.records[0].result.metrics["n_generations"] == 6.0
        replay = run_campaign(["fig4a"], seeds=[0], cache_dir=tmp_path)
        assert replay.n_cache_hits == 1
        assert first.records[0].result.metrics["n_generations"] == 5.0

    def test_explicit_override_equal_to_env_budget_shares_the_entry(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_GENERATIONS", "5")
        monkeypatch.setenv("REPRO_POPULATION", "8")
        run_campaign(["fig4a"], seeds=[0], cache_dir=tmp_path)
        monkeypatch.delenv("REPRO_GENERATIONS")
        monkeypatch.delenv("REPRO_POPULATION")
        explicit = run_campaign(
            ["fig4a"], seeds=[0],
            overrides={"n_generations": 5, "population_size": 8},
            cache_dir=tmp_path,
        )
        assert explicit.n_cache_hits == 1

    def test_progress_callback_sees_every_task(self):
        seen = []
        run_campaign(
            ["fact1"], seeds=[0, 1, 2],
            on_task_done=lambda task, cached: seen.append((task.seed, cached)),
        )
        assert sorted(seen) == [(0, False), (1, False), (2, False)]

    def test_requires_seeds_with_patterns(self):
        with pytest.raises(ExperimentError, match="seeds are required"):
            run_campaign(["fact1"])

    def test_rejects_seeds_or_overrides_alongside_a_spec(self):
        spec = plan_campaign(["fact1"], [0])
        with pytest.raises(ExperimentError, match="part of the CampaignSpec"):
            run_campaign(spec, seeds=[1])
        with pytest.raises(ExperimentError, match="part of the CampaignSpec"):
            run_campaign(spec, overrides={"n_generations": 5})


class TestCampaignDeterminism:
    """The acceptance property: byte-identical aggregates no matter how the
    campaign was executed (worker count, cache state)."""

    @pytest.fixture(scope="class")
    def spec(self) -> CampaignSpec:
        return plan_campaign(["fig4a", "thm2"], [0, 1], FAST)

    @pytest.fixture(scope="class")
    def serial_cold(self, spec):
        return run_campaign(spec, n_jobs=1)

    def test_parallel_matches_serial_byte_for_byte(self, spec, serial_cold):
        parallel = run_campaign(spec, n_jobs=2)
        assert parallel.aggregate_json() == serial_cold.aggregate_json()

    def test_cached_replay_matches_byte_for_byte(self, spec, serial_cold, tmp_path):
        warmup = run_campaign(spec, n_jobs=2, cache_dir=tmp_path)
        replay = run_campaign(spec, n_jobs=1, cache_dir=tmp_path)
        assert replay.n_cache_hits == len(spec.tasks())
        assert warmup.aggregate_json() == serial_cold.aggregate_json()
        assert replay.aggregate_json() == serial_cold.aggregate_json()
