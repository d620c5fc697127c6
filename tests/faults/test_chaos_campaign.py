"""End-to-end chaos for the orchestration layers (campaign, pipeline, CLI).

The headline acceptance scenario: a campaign with one persistently crashing
cell and one hanging cell completes all other cells, exits non-zero, and its
failure manifest names both quarantined cells.  Fault-free runs under the
resilience machinery stay byte-identical to plain runs.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments.campaign import run_campaign
from repro.faults.injector import FAULTS_ENVIRONMENT_VARIABLE, fault_plan
from repro.faults.plan import parse_fault_plan
from repro.pipeline.runner import run_pipeline
from repro.pipeline.spec import plan_pipeline


class TestCampaignAcceptance:
    def test_poison_cells_quarantined_rest_completes(self, monkeypatch):
        # Grid order is experiments outer, seeds inner: fact1 seeds 0,1,2 are
        # cells 0,1,2.  Cell 0 crashes on every attempt, cell 1 hangs past
        # the timeout on every attempt, cell 2 is healthy.
        monkeypatch.setenv(
            FAULTS_ENVIRONMENT_VARIABLE, "crash@cell:0; hang@cell:1=60"
        )
        result = run_campaign(
            ["fact1"], seeds=[0, 1, 2], retries=1, cell_timeout=1.0,
        )
        assert not result.complete
        assert [(task.experiment_id, task.seed) for task in result.failures] == [
            ("fact1", 0), ("fact1", 1),
        ]
        # Every other cell completed and aggregated.
        assert [record.task.seed for record in result.records] == [2]
        assert "fact1" in result.aggregates
        manifest = result.failure_manifest
        assert manifest["quarantined_cells"] == [0, 1]
        by_index = {cell["index"]: cell for cell in manifest["cells"]}
        assert by_index[0]["experiment_id"] == "fact1" and by_index[0]["seed"] == 0
        assert [a["status"] for a in by_index[0]["attempts"]] == ["crash", "crash"]
        assert [a["status"] for a in by_index[1]["attempts"]] == ["timeout", "timeout"]
        # The manifest rides along in the aggregate document.
        assert result.aggregate_document()["failure_manifest"] == manifest

    def test_cli_exits_non_zero_and_names_both_cells(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(
            FAULTS_ENVIRONMENT_VARIABLE, "crash@cell:0; hang@cell:1=60"
        )
        output = tmp_path / "aggregate.json"
        exit_code = main([
            "campaign", "fact1", "--seeds", "3",
            "--retries", "0", "--cell-timeout", "1",
            "--output", str(output),
        ])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "2 campaign cell(s) quarantined" in captured.err
        assert "cell 0 (experiment_id=fact1, seed=0)" in captured.err
        assert "cell 1 (experiment_id=fact1, seed=1)" in captured.err
        # Aggregates over the surviving cells were still written, manifest
        # included.
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["type"] == "campaign_aggregate"
        assert document["failure_manifest"]["quarantined_cells"] == [0, 1]

    def test_transient_fault_leaves_aggregates_identical(self, monkeypatch):
        clean = run_campaign(["fact1"], seeds=[0, 1])
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "oserror@cell:1*1")
        recovered = run_campaign(["fact1"], seeds=[0, 1], retries=1)
        assert recovered.complete
        # The retry restored the exact fault-free aggregates; the only trace
        # of the fault is the manifest recording the recovered attempt.
        faulted_document = recovered.aggregate_document()
        manifest = faulted_document.pop("failure_manifest")
        assert json.dumps(faulted_document, sort_keys=True) == \
            json.dumps(clean.aggregate_document(), sort_keys=True)
        assert manifest["quarantined_cells"] == []
        assert [a["status"] for a in manifest["cells"][0]["attempts"]] == ["error", "ok"]

    def test_fault_free_resilient_run_is_byte_identical(self):
        plain = run_campaign(["fact1"], seeds=[0, 1])
        resilient = run_campaign(
            ["fact1"], seeds=[0, 1], retries=3, cell_timeout=30.0, keep_going=True,
        )
        assert resilient.complete
        assert resilient.aggregate_json() == plain.aggregate_json()


#: Smallest meaningful pipeline: one scheme, one miner, two seeds.
FAST_PIPELINE = dict(
    schemes=["warner:0.8"], miners=["distribution"], seeds=[0, 1], n_records=2000,
)


class TestPipelineChaos:
    def test_poison_cell_quarantined_with_keep_going(self):
        spec = plan_pipeline("adult:education", **FAST_PIPELINE)
        with fault_plan(parse_fault_plan("error@cell:0")):
            result = run_pipeline(spec, keep_going=True)
        assert not result.complete
        assert result.failures == (("warner:0.8", 0, "distribution"),)
        assert result.failure_manifest["quarantined_cells"] == [0]
        # The healthy cell still mined.
        assert [cell.seed for cell in result.cells] == [1]
        assert result.aggregate_document()["failure_manifest"] is not None

    def test_transient_fault_recovers_to_identical_aggregates(self):
        spec = plan_pipeline("adult:education", **FAST_PIPELINE)
        clean = run_pipeline(spec)
        with fault_plan(parse_fault_plan("oserror@cell:1*1")):
            recovered = run_pipeline(spec, retries=1)
        assert recovered.complete
        document = recovered.aggregate_document()
        document.pop("failure_manifest")
        assert json.dumps(document, sort_keys=True) == \
            json.dumps(clean.aggregate_document(), sort_keys=True)
