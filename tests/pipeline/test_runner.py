"""Tests for pipeline execution: determinism, caching, degradation.

The two properties the subsystem guarantees:

* **Byte-determinism** — the same spec produces byte-identical aggregate and
  result documents across worker counts and cache states (the acceptance
  criterion of the pipeline subsystem).
* **Monotone utility degradation** — as the disguise strengthens (privacy
  rises), every miner's utility metric degrades monotonically: this is the
  paper's privacy/utility trade-off measured end to end through real mining.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.io import _check_document, matrix_from_dict, pipeline_result_to_dict
from repro.utils.arrays import dump_canonical_json
from repro.pipeline.runner import (
    PipelineCellRecord,
    PipelineResult,
    SchemeEvaluation,
    disguise_workload,
    run_pipeline,
)
from repro.pipeline.spec import PipelineScheme, PipelineSpec, plan_pipeline
from repro.data.workload import build_workload
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix


# -- the pipeline_result document reader (nothing in the package reads one back)
def pipeline_result_from_dict(document: dict[str, Any]) -> PipelineResult:
    """Deserialize a pipeline result from :func:`pipeline_result_to_dict`
    output (cache provenance flags reset — a loaded document no longer knows
    which cells were cache hits)."""
    _check_document(document, "pipeline_result")
    schemes = tuple(
        PipelineScheme(name=str(item["name"]), matrix=matrix_from_dict(item["matrix"]))
        for item in document.get("schemes", [])
    )
    evaluations = tuple(
        SchemeEvaluation(
            scheme=str(item["name"]),
            privacy=float(item["privacy"]),
            utility=float(item["utility"]),
            max_posterior=float(item["max_posterior"]),
            invertible=bool(item.get("invertible", True)),
        )
        for item in document.get("schemes", [])
    )
    miner_params = tuple(
        (str(miner), tuple(sorted(dict(params).items())))
        for miner, params in document.get("miner_params", {}).items()
    )
    raw_categories = document.get("n_categories")
    spec = PipelineSpec(
        data=str(document["data"]),
        n_records=int(document["n_records"]),
        n_categories=int(raw_categories) if raw_categories is not None else None,
        schemes=schemes,
        miners=tuple(str(miner) for miner in document.get("miners", [])),
        seeds=tuple(int(seed) for seed in document.get("seeds", [])),
        miner_params=miner_params,
    )
    cells = tuple(
        PipelineCellRecord(
            scheme=str(item["scheme"]),
            seed=int(item["seed"]),
            miner=str(item["miner"]),
            metrics={key: float(value) for key, value in item.get("metrics", {}).items()},
            from_cache=False,
        )
        for item in document.get("cells", [])
    )
    manifest = document.get("failure_manifest")
    failures: tuple[tuple[str, int, str], ...] = ()
    if manifest is not None:
        failures = tuple(
            (str(cell["scheme"]), int(cell["seed"]), str(cell["miner"]))
            for cell in manifest.get("cells", [])
            if cell.get("quarantined")
        )
    return PipelineResult(
        spec=spec,
        evaluations=evaluations,
        cells=cells,
        failures=failures,
        failure_manifest=manifest,
    )


def save_pipeline_result(result: PipelineResult, path: str | Path) -> Path:
    """Write a pipeline result to a canonical-JSON file and return the path."""
    path = Path(path)
    path.write_text(dump_canonical_json(pipeline_result_to_dict(result)), encoding="utf-8")
    return path


def load_pipeline_result(path: str | Path) -> PipelineResult:
    """Read a pipeline result from a JSON file written by
    :func:`save_pipeline_result`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return pipeline_result_from_dict(document)

#: Small but signal-bearing workload shared by the determinism tests.
FAST = dict(n_records=3000)


@pytest.fixture(scope="module")
def spec():
    return plan_pipeline(
        "adult:education",
        schemes=["warner:0.8", "warner:0.5"],
        miners=["tree", "rules", "distribution"],
        seeds=[0, 1],
        **FAST,
    )


@pytest.fixture(scope="module")
def serial_cold(spec):
    return run_pipeline(spec, n_jobs=1)


class TestRunPipeline:
    def test_cells_follow_grid_order(self, spec, serial_cold):
        expected = [
            (task.scheme.name, task.seed, task.miner) for task in spec.tasks()
        ]
        actual = [(cell.scheme, cell.seed, cell.miner) for cell in serial_cold.cells]
        assert actual == expected

    def test_evaluations_cover_every_scheme_in_order(self, spec, serial_cold):
        assert [e.scheme for e in serial_cold.evaluations] == [
            s.name for s in spec.schemes
        ]
        # Stronger disguise => more privacy, less utility.
        assert serial_cold.evaluations[1].privacy > serial_cold.evaluations[0].privacy

    def test_metrics_for_lookup(self, serial_cold):
        metrics = serial_cold.metrics_for("warner:0.8", "tree", 0)
        assert "accuracy" in metrics
        with pytest.raises(ValidationError, match="not part"):
            serial_cold.metrics_for("warner:0.8", "tree", 99)

    def test_singular_scheme_rejected_up_front(self):
        n = 4
        uniform = PipelineScheme("uniform", RRMatrix.uniform(n))
        spec = plan_pipeline("normal", schemes=[uniform], miners=["tree"],
                             seeds=[0], n_records=500, n_categories=n)
        with pytest.raises(ValidationError, match="not invertible"):
            run_pipeline(spec)


class TestDeterminism:
    """The acceptance property: byte-identical documents no matter how the
    pipeline was executed (worker count, cache state)."""

    def test_parallel_matches_serial_byte_for_byte(self, spec, serial_cold):
        parallel = run_pipeline(spec, n_jobs=2)
        assert parallel.aggregate_json() == serial_cold.aggregate_json()
        assert dump_canonical_json(parallel.result_document()) == dump_canonical_json(
            serial_cold.result_document()
        )

    def test_cached_replay_matches_byte_for_byte(self, spec, serial_cold, tmp_path):
        warmup = run_pipeline(spec, n_jobs=2, cache_dir=tmp_path)
        replay = run_pipeline(spec, n_jobs=1, cache_dir=tmp_path)
        assert warmup.n_cache_hits == 0
        assert replay.n_cache_hits == len(spec.tasks())
        assert warmup.aggregate_json() == serial_cold.aggregate_json()
        assert replay.aggregate_json() == serial_cold.aggregate_json()

    def test_adding_a_miner_reuses_existing_cells(self, tmp_path):
        base = plan_pipeline("normal", schemes=["warner:0.8"],
                             miners=["distribution"], seeds=[0, 1], n_records=800)
        run_pipeline(base, cache_dir=tmp_path)
        extended = plan_pipeline("normal", schemes=["warner:0.8"],
                                 miners=["distribution", "rules"], seeds=[0, 1],
                                 n_records=800)
        result = run_pipeline(extended, cache_dir=tmp_path)
        # The distribution cells replay; only the rules cells compute.
        assert result.n_cache_hits == 2

    def test_disguise_is_scheme_and_seed_deterministic(self):
        workload = build_workload("normal", 1000, 3)
        matrix = warner_matrix(10, 0.6)
        first = disguise_workload(workload, matrix)
        second = disguise_workload(workload, matrix)
        np.testing.assert_array_equal(first.records, second.records)
        other_scheme = disguise_workload(workload, warner_matrix(10, 0.61))
        assert not np.array_equal(first.records, other_scheme.records)


class TestMonotoneDegradation:
    """Tightening the privacy (stronger disguise) must degrade every miner's
    utility monotonically — the paper's trade-off, measured through mining."""

    @pytest.fixture(scope="class")
    def aggregate(self):
        spec = plan_pipeline(
            "adult:education",
            schemes=["warner:0.9", "warner:0.6", "warner:0.35", "warner:0.15"],
            miners=["tree", "rules", "distribution"],
            seeds=[0, 1],
            n_records=6000,
        )
        return run_pipeline(spec, n_jobs=2).aggregate_document()

    def _series(self, aggregate, miner, metric):
        return [row["miners"][miner][metric]["mean"] for row in aggregate["schemes"]]

    def test_privacy_increases_along_the_sweep(self, aggregate):
        privacy = [row["privacy"] for row in aggregate["schemes"]]
        assert privacy == sorted(privacy)
        assert privacy[-1] > privacy[0] + 0.3

    def test_tree_accuracy_degrades_monotonically(self, aggregate):
        accuracy = self._series(aggregate, "tree", "accuracy")
        for earlier, later in zip(accuracy, accuracy[1:]):
            assert later <= earlier + 0.01  # noise tolerance per step
        assert accuracy[-1] < accuracy[0] - 0.01

    def test_rule_f1_degrades_monotonically(self, aggregate):
        f1 = self._series(aggregate, "rules", "f1")
        for earlier, later in zip(f1, f1[1:]):
            assert later <= earlier + 0.02
        assert f1[-1] < f1[0]

    def test_distribution_error_grows_strictly(self, aggregate):
        l1 = self._series(aggregate, "distribution", "l1_error")
        for earlier, later in zip(l1, l1[1:]):
            assert later > earlier


class TestPipelineResultIO:
    def test_document_round_trips_byte_identically(self, serial_cold):
        document = pipeline_result_to_dict(serial_cold)
        assert document["type"] == "pipeline_result"
        again = pipeline_result_to_dict(pipeline_result_from_dict(document))
        assert dump_canonical_json(again) == dump_canonical_json(document)

    def test_save_and_load(self, serial_cold, tmp_path):
        path = save_pipeline_result(serial_cold, tmp_path / "result.json")
        loaded = load_pipeline_result(path)
        assert loaded.spec.data == serial_cold.spec.data
        assert loaded.aggregate_json() == serial_cold.aggregate_json()

    def test_loaded_result_resets_cache_provenance(self, serial_cold, tmp_path):
        path = save_pipeline_result(serial_cold, tmp_path / "result.json")
        assert load_pipeline_result(path).n_cache_hits == 0
