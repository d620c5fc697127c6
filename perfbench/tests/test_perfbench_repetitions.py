"""Whole repetitions on shrunken workloads: traced and untraced runs write
identical outputs, and a truncated, corrupt or missing output counts as a
failed repetition."""

from __future__ import annotations

import json

import pytest

from perfbench import run as bench
from perfbench.layers import LAYER_METRICS
from perfbench.workloads import (
    CheckFailed,
    Workload,
    check_disguise,
    check_optimize,
    check_pipeline,
    prepare_disguise,
    prepare_pipeline,
)

SMALL = {
    "optimize": Workload(
        "optimize-small",
        {
            "argv": ["optimize", "--distribution", "normal", "--categories", "8",
                     "--records", "2000", "--population", "10", "--delta", "0.5",
                     "--generations", "6", "--checkpoint-every", "2", "--seed", "{seed}",
                     "--checkpoint", "{rep}/checkpoint.json", "--output", "{rep}/result.json"],
            "shape": {"n": 8, "records": 2000, "delta": 0.5},
        },
        "first-step",
        check_optimize,
    ),
    "disguise": Workload(
        "disguise-small",
        {
            "argv": ["disguise", "{input}", "--matrix", "warner:0.7", "--categories", "16",
                     "--chunk-size", "1000", "--seed", "{seed}",
                     "--output", "{rep}/disguised.txt", "--report", "{rep}/report.json"],
            "shape": {"n": 16, "records": 5000, "input_prior": "normal"},
        },
        "estimator-ready",
        check_disguise,
        prepare_disguise,
    ),
    "pipeline": Workload(
        "pipeline-small",
        {
            "argv": ["pipeline", "--data", "normal", "--schemes", "warner:0.8,up:0.9",
                     "--seeds", "{seed_range}", "--records", "2000", "--jobs", "1",
                     "--cache-dir", "{rep}/cache", "--output", "{rep}/aggregate.json"],
            "shape": {"schemes": 2, "seeds": 2, "cells": 12},
        },
        "first-cache-lookup",
        check_pipeline,
        prepare_pipeline,
    ),
}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_and_untraced_repetitions_write_identical_outputs(kind, tmp_path):
    workload = SMALL[kind]
    context = workload.context(tmp_path, seed=3)
    plain = bench.run_repetition(workload, context, tmp_path / "plain", traced=False)
    traced = bench.run_repetition(workload, context, tmp_path / "traced", traced=True)
    assert plain.ok, plain.failure
    assert traced.ok, traced.failure
    assert plain.digest == traced.digest
    assert plain.setup_s is not None and 0.0 < plain.setup_s < plain.wall_s
    assert plain.work_units > 0 and plain.peak_rss_mb > 0
    assert not plain.trace and traced.trace["spans"]
    values = {metric.name: metric.value([traced.trace]) for metric in LAYER_METRICS}
    assert 0.5 < values["trace.coverage"] <= 1.0
    if kind == "optimize":
        assert values["emoo.driver.checkpoint_writes"] == 3
        assert values["core.operators.repair_s"] > 0
    if kind == "pipeline":
        assert values["experiments.grid.cache_misses"] == 12
        assert values["pipeline.disguise_calls"] == 4


def test_a_truncated_or_corrupt_output_fails_its_check(tmp_path):
    workload = SMALL["disguise"]
    context = workload.context(tmp_path, seed=1)
    rep_dir = tmp_path / "rep"
    assert bench.run_repetition(workload, context, rep_dir, traced=False).ok
    output = rep_dir / "disguised.txt"
    whole = output.read_bytes()
    output.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(CheckFailed, match="disguised codes"):
        workload.outcome(rep_dir, context)
    output.write_bytes(whole.replace(b"\n", b"\nx", 1))
    with pytest.raises(CheckFailed, match="not an integer"):
        workload.outcome(rep_dir, context)
    output.write_bytes(whole)
    report = rep_dir / "report.json"
    report.write_text(report.read_text(encoding="utf-8")[:100], encoding="utf-8")
    with pytest.raises(CheckFailed, match="JSONDecodeError"):
        workload.outcome(rep_dir, context)
    report.unlink()
    with pytest.raises(CheckFailed, match="FileNotFoundError"):
        workload.outcome(rep_dir, context)


def test_failed_checks_and_exit_codes_count_as_failed_repetitions(tmp_path):
    def truncating_check(rep_dir, context, shape):
        path = rep_dir / "disguised.txt"
        path.write_bytes(path.read_bytes()[:-5])
        return check_disguise(rep_dir, context, shape)

    disguise = SMALL["disguise"]
    context = disguise.context(tmp_path, seed=1)
    truncating = Workload("truncating", disguise.definition, disguise.probe,
                          truncating_check, disguise.prepare)
    rep = bench.run_repetition(truncating, context, tmp_path / "truncated", traced=False)
    assert not rep.ok and rep.failure.startswith("output check failed")

    broken = Workload("broken", {"argv": ["optimize", "--population", "zero"], "shape": {}},
                      "first-step", check_optimize)
    rep = bench.run_repetition(broken, {"seed": "0"}, tmp_path / "broken", traced=False)
    assert not rep.ok and rep.failure.startswith("exit code 2")


def test_a_differing_digest_fails_the_repetition():
    reps = [bench.Repetition(False, 1.0, 1.0, digest=digest) for digest in "aab"]
    reps.append(bench.Repetition(False, 1.0, 1.0, failure="exit code 1"))
    bench._check_digests(reps)
    assert [rep.ok for rep in reps] == [True, True, False, False]


def test_definitions_match_the_benchmark_file():
    from perfbench.workloads import DEFINITIONS, WORKLOADS

    benchmark = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    assert names == list(WORKLOADS) == list(DEFINITIONS["workloads"])
    per_layer = [metric["name"] for metric in benchmark["per_layer"]]
    layers = [metric.name for metric in LAYER_METRICS] + ["trace.overhead_s"] + [
        f"quality.{key}" for key in DEFINITIONS["quality"]
    ]
    assert per_layer == layers == [row["metric"] for row in DEFINITIONS["layers"]]
    end_to_end = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    assert list(end_to_end) == list(DEFINITIONS["end_to_end"])
    bounds = [metric["bound"] for metric in end_to_end.values()]
    assert max(bounds) <= 0.25 and end_to_end["setup_s"]["bound"] == max(bounds)
