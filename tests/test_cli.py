"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Tiny optimizer budget for campaign CLI tests.
FAST_CAMPAIGN = ["--generations", "5", "--population", "8"]


def assert_one_error_line(captured, message: str) -> None:
    """A usage error: nothing on stdout, one ``optrr: error:`` line naming
    ``message`` on stderr."""
    assert captured.out == ""
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("optrr: error: ")
    assert message in err_lines[0]


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig4a" in output
        assert "thm2" in output


class TestImportBudget:
    """Handlers import the reporting, experiment-harness, document and lint
    modules they run; neither a bare ``import repro.cli`` nor an
    ``optrr disguise`` run with a family scheme loads them."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["disguise", "codes.txt", "--matrix", "warner:0.7", "--categories", "64",
             "--output", "out.txt", "--report", "report.json"],
        ],
        ids=["import", "disguise"],
    )
    def test_handler_modules_stay_unloaded(self, argv, tmp_path):
        (tmp_path / "codes.txt").write_text(
            "\n".join(str(code % 64) for code in range(500)) + "\n", encoding="ascii"
        )
        script = (
            "import sys\n"
            "import repro.cli\n"
            f"argv = {argv!r}\n"
            "if argv:\n"
            "    assert repro.cli.main(argv) == 0\n"
            "grid = {'repro.experiments.grid', 'repro.experiments.procpool'}\n"
            "loaded = sorted(\n"
            "    name for name in sys.modules\n"
            "    if name.startswith(('repro.analysis', 'repro.lintkit', 'repro.io'))\n"
            "    or name in ('repro.core.search_space', 'repro.emoo.indicators')\n"
            "    or (name.startswith('repro.experiments.') and name not in grid)\n"
            ")\n"
            "assert not loaded, loaded\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr


class TestSearchSpace:
    def test_prints_fact1_exponent(self, capsys):
        assert main(["search-space", "--categories", "10", "--grid", "100"]) == 0
        assert "10^126" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--categories", "-1"], "n_categories must be positive"),
            (["--grid", "0"], "d must be positive"),
        ],
    )
    def test_bad_flag_exits_2_with_one_line(self, capsys, flags, message):
        assert main(["search-space", *flags]) == 2
        assert_one_error_line(capsys.readouterr(), message)


class TestOptimize:
    def test_optimize_small_run(self, capsys):
        exit_code = main([
            "optimize",
            "--distribution", "normal",
            "--categories", "6",
            "--records", "2000",
            "--delta", "0.8",
            "--generations", "15",
            "--population", "12",
            "--seed", "1",
            "--plot",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "privacy range" in output
        assert "Pareto front" in output

    def test_optimize_adult_attribute(self, capsys):
        exit_code = main([
            "optimize",
            "--distribution", "adult:sex",
            "--records", "1000",
            "--generations", "10",
            "--population", "8",
        ])
        assert exit_code == 0
        assert "privacy range" in capsys.readouterr().out


class TestCompareSchemes:
    def test_prints_three_family_tables(self, capsys):
        assert main(["compare-schemes", "--categories", "5", "--records", "1000"]) == 0
        output = capsys.readouterr().out
        assert "warner" in output
        assert "frapp" in output
        assert "uniform-perturbation" in output

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--categories", "0"], "n_categories must be positive"),
            (["--categories", "1"], "at least two categories"),
            (["--records", "0"], "n_records must be positive"),
            (["--delta", "2"], "delta must be in (0, 1]"),
            (["--delta", "0.01"], "Theorem 5"),
        ],
    )
    def test_bad_flag_exits_2_with_one_line(self, capsys, flags, message):
        assert main(["compare-schemes", *flags]) == 2
        assert_one_error_line(capsys.readouterr(), message)


class TestRun:
    def test_run_fact1(self, capsys):
        assert main(["run", "fact1"]) == 0
        assert "1.98e126" in capsys.readouterr().out.replace("REPRODUCED] fact1: paper: ", "")

    def test_run_fig4a_small(self, capsys):
        exit_code = main([
            "run", "fig4a", "--generations", "30", "--population", "12", "--plot",
        ])
        output = capsys.readouterr().out
        assert "fig4a" in output
        assert exit_code in (0, 1)  # tiny budgets may legitimately diverge

    def test_unknown_experiment_exits_2_with_message(self, capsys):
        assert main(["run", "does-not-exist"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_rejected_override_exits_2_listing_accepted_keys(self, capsys):
        # thm2 does not take an optimizer budget; the error must name the
        # accepted keys instead of surfacing a raw TypeError.
        assert main(["run", "thm2", "--population", "8"]) == 2
        error = capsys.readouterr().err
        assert "does not accept" in error
        assert "n_categories" in error

    @pytest.mark.parametrize(
        ("variable", "value"),
        [("REPRO_POPULATION", "0"), ("REPRO_LOW_FIDELITY", "nan"), ("REPRO_GENERATIONS", "abc")],
    )
    def test_malformed_environment_default_exits_2(self, capsys, monkeypatch, variable, value):
        monkeypatch.setenv(variable, value)
        assert main(["run", "fig4a"]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"optrr: error: {variable} ")


class TestMalformedFaultPlan:
    """A malformed REPRO_FAULTS plan is a usage error before any cell runs,
    not one quarantined failure per cell."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "fact1", "--seeds", "2"],
            ["pipeline", "--data", "normal", "--schemes", "warner:0.8", "--seeds", "0",
             "--records", "400", "--categories", "4", "--miners", "distribution"],
        ],
    )
    def test_exits_2_with_one_line(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("REPRO_FAULTS", "garbage!!")
        assert main(argv) == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("optrr: error: fault clause 'garbage!!'")
        assert captured.out == ""


class TestCampaign:
    def test_campaign_runs_and_writes_aggregate(self, capsys, tmp_path):
        output = tmp_path / "aggregate.json"
        exit_code = main([
            "campaign", "fact1", "fig4a",
            "--seeds", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(output),
            *FAST_CAMPAIGN,
        ])
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert "2 experiment(s) x 2 seed(s) = 4 run(s)" in stdout
        assert "fact1" in stdout
        assert "fig4a" in stdout
        document = json.loads(output.read_text())
        assert document["type"] == "campaign_aggregate"
        assert set(document["experiments"]) == {"fact1", "fig4a"}
        assert document["experiments"]["fig4a"]["seeds"] == [0, 1]

    def test_campaign_glob_patterns_expand(self, capsys):
        assert main(["campaign", "fig4[ab]", "--seeds", "1", *FAST_CAMPAIGN]) == 0
        stdout = capsys.readouterr().out
        assert "fig4a" in stdout
        assert "fig4b" in stdout

    def test_cached_rerun_is_byte_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        arguments = ["campaign", "fact1", "--seeds", "2", "--cache-dir", cache]
        assert main(arguments + ["--output", str(first)]) == 0
        assert main(arguments + ["--jobs", "2", "--output", str(second)]) == 0
        assert "2 from cache" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()

    def test_unmatched_pattern_exits_2(self, capsys):
        assert main(["campaign", "fig9*", "--seeds", "1"]) == 2
        assert "matches no experiment" in capsys.readouterr().err

    def test_zero_seeds_exits_2(self, capsys):
        assert main(["campaign", "fact1", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_zero_jobs_exits_2(self, capsys):
        assert main(["campaign", "fact1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_missing_output_directory_fails_before_running(self, capsys, tmp_path):
        exit_code = main([
            "campaign", "fact1", "--seeds", "1",
            "--output", str(tmp_path / "nope" / "agg.json"),
        ])
        assert exit_code == 2
        error = capsys.readouterr().err
        assert "--output" in error

    def test_cache_dir_pointing_at_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        exit_code = main([
            "campaign", "fact1", "--seeds", "1", "--cache-dir", str(blocker),
        ])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_cache_dir_nested_under_a_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        exit_code = main([
            "campaign", "fact1", "--seeds", "1",
            "--cache-dir", str(blocker / "cache"),
        ])
        assert exit_code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_output_pointing_at_directory_exits_2(self, capsys, tmp_path):
        exit_code = main([
            "campaign", "fact1", "--seeds", "1", "--output", str(tmp_path),
        ])
        assert exit_code == 2
        assert "existing directory" in capsys.readouterr().err


class TestOptimizeOutput:
    def test_writes_loadable_front_document(self, capsys, tmp_path):
        output = tmp_path / "front.json"
        exit_code = main([
            "optimize", "--distribution", "normal", "--categories", "5",
            "--records", "1000", "--generations", "8", "--population", "8",
            "--output", str(output),
        ])
        assert exit_code == 0
        assert "front written to" in capsys.readouterr().out
        from repro.io import load_result

        result = load_result(output)
        assert len(result.points) > 0
        assert result.points[0].matrix.n_categories == 5

    def test_missing_output_directory_fails_before_running(self, capsys, tmp_path):
        exit_code = main([
            "optimize", "--distribution", "normal",
            "--output", str(tmp_path / "nope" / "front.json"),
        ])
        assert exit_code == 2
        assert "--output" in capsys.readouterr().err


#: Tiny pipeline workload shared by the CLI pipeline tests.
FAST_PIPELINE = ["--data", "adult:sex", "--records", "600"]

#: sha256 of the cold ``--jobs 1`` aggregate in the golden-digest test.
GOLDEN_PIPELINE_SHA256 = "61aeee8080693af8f2a36befa8d2c1d8097b95882f961cdb228e4522505cd599"


class TestPipeline:
    def test_runs_schemes_and_writes_aggregate(self, capsys, tmp_path):
        output = tmp_path / "aggregate.json"
        exit_code = main([
            "pipeline", *FAST_PIPELINE,
            "--schemes", "warner:0.8,warner:0.7",
            "--miners", "tree,rules,distribution",
            "--seeds", "0-1",
            "--output", str(output),
        ])
        assert exit_code == 0
        stdout = capsys.readouterr().out
        assert "2 scheme(s) x 2 seed(s) x 3 miner(s) = 12 cell(s)" in stdout
        assert "warner:0.8" in stdout
        document = json.loads(output.read_text())
        assert document["type"] == "pipeline_aggregate"
        assert document["seeds"] == [0, 1]
        assert [row["scheme"] for row in document["schemes"]] == [
            "warner:0.8", "warner:0.7",
        ]

    def test_result_document_written(self, capsys, tmp_path):
        result_path = tmp_path / "result.json"
        exit_code = main([
            "pipeline", *FAST_PIPELINE,
            "--schemes", "warner:0.8", "--miners", "distribution",
            "--seeds", "1", "--result", str(result_path),
        ])
        assert exit_code == 0
        document = json.loads(result_path.read_text())
        assert document["type"] == "pipeline_result"
        assert len(document["cells"]) == 1

    def test_byte_identical_across_jobs_and_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        third = tmp_path / "third.json"
        arguments = [
            "pipeline", *FAST_PIPELINE,
            "--schemes", "warner:0.8,warner:0.7", "--miners", "tree,rules",
            "--seeds", "0-1", "--cache-dir", cache,
        ]
        assert main(arguments + ["--jobs", "2", "--output", str(first)]) == 0
        assert main(arguments + ["--jobs", "1", "--output", str(second)]) == 0
        assert "8 from cache" in capsys.readouterr().out
        assert main([
            "pipeline", *FAST_PIPELINE,
            "--schemes", "warner:0.8,warner:0.7", "--miners", "tree,rules",
            "--seeds", "0-1", "--output", str(third),
        ]) == 0
        assert first.read_bytes() == second.read_bytes() == third.read_bytes()

    def test_front_document_feeds_the_pipeline(self, capsys, tmp_path):
        front = tmp_path / "front.json"
        assert main([
            "optimize", "--distribution", "adult:sex", "--records", "600",
            "--generations", "8", "--population", "8",
            "--output", str(front),
        ]) == 0
        exit_code = main([
            "pipeline", *FAST_PIPELINE,
            "--front", str(front), "--front-schemes", "2",
            "--miners", "distribution", "--seeds", "1",
        ])
        assert exit_code == 0
        assert "front[00]" in capsys.readouterr().out

    def test_schemes_or_front_required(self, capsys):
        assert main(["pipeline", *FAST_PIPELINE]) == 2
        assert "--schemes" in capsys.readouterr().err

    def test_unreadable_front_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        assert main([
            "pipeline", *FAST_PIPELINE, "--front", str(missing),
        ]) == 2
        assert "--front" in capsys.readouterr().err

    def test_bad_seeds_exit_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--seeds", "x",
        ]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_unknown_miner_exits_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "nope",
        ]) == 2
        assert "unknown miner" in capsys.readouterr().err

    def test_bad_scheme_exits_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner",
        ]) == 2
        assert "family:parameter" in capsys.readouterr().err

    def test_conflicting_categories_exit_2(self, capsys):
        assert main([
            "pipeline", "--data", "adult:sex", "--categories", "10",
            "--schemes", "warner:0.8",
        ]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_miner_param_override_applies(self, capsys, tmp_path):
        result_path = tmp_path / "result.json"
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "rules", "--seeds", "1",
            "--miner-param", "rules:min_support=0.2",
            "--result", str(result_path),
        ])
        assert exit_code == 0
        document = json.loads(result_path.read_text())
        assert document["miner_params"]["rules"]["min_support"] == 0.2

    def test_miner_param_accepts_documented_alias(self, capsys):
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "dist", "--seeds", "1",
            "--miner-param", "dist:method=inversion",
        ])
        assert exit_code == 0

    def test_cell_time_estimation_error_exits_2(self, capsys):
        # The method value is only validated when the miner runs; the failure
        # must still surface as the documented exit-2 error, not a traceback.
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "distribution", "--seeds", "1",
            "--miner-param", "distribution:method=nope",
        ])
        assert exit_code == 2
        assert "unknown estimation method" in capsys.readouterr().err

    def test_uncoercible_miner_param_value_exits_2(self, capsys):
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "tree", "--miner-param", "tree:max_depth=abc",
        ])
        assert exit_code == 2
        assert "expects a" in capsys.readouterr().err

    def test_front_schemes_without_front_exits_2(self, capsys):
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--front-schemes", "2",
        ])
        assert exit_code == 2
        assert "--front-schemes" in capsys.readouterr().err

    def test_malformed_miner_param_exits_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miner-param", "rules-min_support-0.2",
        ]) == 2
        assert "miner:key=value" in capsys.readouterr().err

    def test_missing_output_directory_fails_before_running(self, capsys, tmp_path):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--output", str(tmp_path / "nope" / "agg.json"),
        ]) == 2
        assert "--output" in capsys.readouterr().err

    def test_zero_jobs_exits_2(self, capsys):
        assert main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8", "--jobs", "0",
        ]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_nan_min_information_gain_exits_2(self, capsys, tmp_path):
        output = tmp_path / "aggregate.json"
        exit_code = main([
            "pipeline", *FAST_PIPELINE, "--schemes", "warner:0.8",
            "--miners", "tree", "--seeds", "1",
            "--miner-param", "tree:min_information_gain=nan",
            "--output", str(output),
        ])
        assert exit_code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("optrr: error: ")
        assert "min_information_gain" in err_lines[0]
        assert not output.exists()

    def test_cold_serial_aggregate_matches_golden_digest(self, capsys, tmp_path):
        # Recorded with the per-record tree scorer and per-candidate table
        # reconstruction; the CI pipeline-smoke job pins the same digest.
        output = tmp_path / "golden.json"
        assert main([
            "pipeline", "--data", "adult:education",
            "--schemes", "warner:0.8,warner:0.5,warner:0.3",
            "--miners", "tree,rules", "--seeds", "0-1", "--records", "4000",
            "--jobs", "1", "--output", str(output),
        ]) == 0
        assert hashlib.sha256(output.read_bytes()).hexdigest() == GOLDEN_PIPELINE_SHA256


class TestAdultCategoriesResolution:
    def test_optimize_derives_categories_from_adult_attribute(self, capsys):
        exit_code = main([
            "optimize", "--distribution", "adult:sex",
            "--records", "500", "--generations", "5", "--population", "8",
        ])
        assert exit_code == 0
        assert "privacy range" in capsys.readouterr().out

    def test_optimize_accepts_matching_explicit_categories(self, capsys):
        exit_code = main([
            "optimize", "--distribution", "adult:sex", "--categories", "2",
            "--records", "500", "--generations", "5", "--population", "8",
        ])
        assert exit_code == 0

    def test_optimize_rejects_conflicting_categories(self, capsys):
        exit_code = main([
            "optimize", "--distribution", "adult:sex", "--categories", "10",
            "--records", "500", "--generations", "5", "--population", "8",
        ])
        assert exit_code == 2
        error = capsys.readouterr().err
        assert "--categories 10 conflicts" in error
        assert "'sex'" in error

    def test_compare_schemes_rejects_conflicting_categories(self, capsys):
        exit_code = main([
            "compare-schemes", "--distribution", "adult:sex",
            "--categories", "5", "--records", "500",
        ])
        assert exit_code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_compare_schemes_derives_categories(self, capsys):
        exit_code = main([
            "compare-schemes", "--distribution", "adult:sex", "--records", "500",
        ])
        assert exit_code == 0
        assert "warner" in capsys.readouterr().out

    def test_unknown_adult_attribute_exits_2(self, capsys):
        assert main(["optimize", "--distribution", "adult:nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestArgumentErrors:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


#: Tiny shared workload for checkpoint/resume CLI tests.
FAST_OPTIMIZE = [
    "optimize", "--distribution", "normal", "--categories", "6",
    "--records", "2000", "--population", "8", "--seed", "3",
]


class TestOptimizeCheckpointResume:
    def test_interrupted_resume_is_byte_identical(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        checkpoint = tmp_path / "ck.json"
        assert main(FAST_OPTIMIZE + ["--generations", "6", "--output", str(full)]) == 0
        # "Interrupted" run: a smaller budget with per-generation checkpoints.
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "2", "--checkpoint", str(checkpoint),
               "--checkpoint-every", "1"]
        ) == 0
        assert checkpoint.is_file()
        # Resume extends the budget; the result must match the uninterrupted
        # run byte for byte.
        assert main(
            ["optimize", "--resume", str(checkpoint), "--generations", "6",
             "--output", str(resumed)]
        ) == 0
        assert full.read_bytes() == resumed.read_bytes()

    def test_resume_ignores_legacy_backend_field(self, tmp_path, capsys):
        """Checkpoints written while kernels were selectable carry a
        ``backend`` key; resume ignores it, whatever it names."""
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        checkpoint = tmp_path / "ck.json"
        assert main(FAST_OPTIMIZE + ["--generations", "6", "--output", str(full)]) == 0
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "2", "--checkpoint", str(checkpoint),
               "--checkpoint-every", "1"]
        ) == 0
        document = json.loads(checkpoint.read_text())
        assert "backend" not in document
        document["backend"] = "numba"
        checkpoint.write_text(json.dumps(document))
        assert main(
            ["optimize", "--resume", str(checkpoint), "--generations", "6",
             "--output", str(resumed)]
        ) == 0
        assert full.read_bytes() == resumed.read_bytes()

    def test_resume_of_finished_run_replays_result(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        replay = tmp_path / "replay.json"
        checkpoint = tmp_path / "ck.json"
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "4", "--checkpoint", str(checkpoint),
               "--checkpoint-every", "1", "--output", str(full)]
        ) == 0
        # Without a new budget, resume reproduces the finished run's result
        # from the checkpoint without recomputing any generations.
        assert main(
            ["optimize", "--resume", str(checkpoint), "--output", str(replay)]
        ) == 0
        assert full.read_bytes() == replay.read_bytes()

    def test_deadline_flag_accepts_run(self, tmp_path, capsys):
        output = tmp_path / "out.json"
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "3", "--deadline", "9999", "--output", str(output)]
        ) == 0
        assert output.is_file()

    def test_checkpoint_every_requires_destination(self, capsys):
        assert main(FAST_OPTIMIZE + ["--generations", "2", "--checkpoint-every", "1"]) == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_checkpoint_every_must_be_positive(self, tmp_path, capsys):
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "2", "--checkpoint", str(tmp_path / "c.json"),
               "--checkpoint-every", "0"]
        ) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_deadline_must_be_positive(self, capsys):
        assert main(FAST_OPTIMIZE + ["--generations", "2", "--deadline", "0"]) == 2
        assert "--deadline" in capsys.readouterr().err

    def test_resume_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["optimize", "--resume", str(tmp_path / "absent.json")]) == 2
        assert "cannot read --resume" in capsys.readouterr().err

    def test_resume_non_checkpoint_document_is_usage_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"type": "rr_matrix", "format_version": 1}))
        assert main(["optimize", "--resume", str(bogus)]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def _broken_checkpoint(self, tmp_path, capsys, breaker, extra=()) -> str:
        checkpoint = tmp_path / "ck.json"
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "2", "--checkpoint", str(checkpoint),
               "--checkpoint-every", "1", *extra]
        ) == 0
        document = json.loads(checkpoint.read_text())
        breaker(document)
        checkpoint.write_text(json.dumps(document))
        capsys.readouterr()
        return str(checkpoint)

    def _assert_one_line_error(self, capsys, exit_code, *fragments):
        assert exit_code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("optrr: error:")
        for fragment in fragments:
            assert fragment in err_lines[0]

    @pytest.mark.parametrize("stopped", [False, True])
    def test_resume_malformed_generation_names_the_field(self, tmp_path, capsys, stopped):
        def breaker(document):
            document["generation"] = "five"
            document["stopped"] = stopped

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, "'generation'", "'five'")

    def test_resume_missing_field_names_the_field(self, tmp_path, capsys):
        def breaker(document):
            del document["state"]["population"]["genomes"]

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, "missing field 'genomes'")

    @pytest.mark.parametrize(
        ("part", "factor", "fragment"),
        [
            ("optimal_set", -1.0, "optimal set genomes entries must lie in [0, 1]"),
            ("population", float("nan"), "population genomes must contain only finite"),
            ("population", -1.0, "population genomes entries must lie in [0, 1]"),
            ("population", 3.0, "population genomes entries must lie in [0, 1]"),
            ("archive", float("nan"), "archive genomes must contain only finite"),
            ("archive", -1.0, "archive genomes entries must lie in [0, 1]"),
            ("archive", 3.0, "archive genomes entries must lie in [0, 1]"),
        ],
    )
    def test_resume_rejects_non_stochastic_genomes(self, tmp_path, capsys, part, factor, fragment):
        from repro.utils.arrays import decode_array, encode_array

        def breaker(document):
            section = document["state"][part]
            section["genomes"] = encode_array(decode_array(section["genomes"]) * factor)

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, fragment)

    def test_resume_rejects_an_out_of_range_omega_slot(self, tmp_path, capsys):
        def breaker(document):
            omega = document["state"]["optimal_set"]
            omega["slots"] = omega["slots"][:-1] + [5000]

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, "optimal set slots")

    def test_resume_rejects_omega_metadata_columns_unlike_the_population(self, tmp_path, capsys):
        def breaker(document):
            del document["state"]["optimal_set"]["metadata"]["max_posterior"]

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, "optimal set metadata columns")

    @pytest.mark.parametrize("stale", [-1, True, "3"])
    def test_resume_rejects_a_tampered_stagnation_counter(self, tmp_path, capsys, stale):

        def breaker(document):
            document["termination"] = {"stale": stale}

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, "'termination.stale'")

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("elapsed_seconds", float("nan")),
            ("elapsed_seconds", -1),
            ("elapsed_seconds", "3"),
            ("elapsed_seconds", True),
            ("stopped", 1),
        ],
    )
    def test_resume_rejects_a_tampered_envelope_field(self, tmp_path, capsys, field, value):
        def breaker(document):
            document[field] = value

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, f"'{field}'")

    def test_resume_rejects_a_version_1_checkpoint(self, tmp_path, capsys):
        def breaker(document):
            document["checkpoint_version"] = 1

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, "unsupported checkpoint version 1")

    @pytest.mark.parametrize("fidelity", [1.0, -5.0, "0.1"])
    def test_resume_rejects_an_unreachable_low_fidelity(self, tmp_path, capsys, fidelity):
        """The fidelity ratchet only moves down from 0.2 to its 0.05 floor."""

        def breaker(document):
            document["state"]["fidelity"]["current_low_fidelity"] = fidelity

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker, ["--fidelity"])
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, "current_low_fidelity")

    def test_resume_missing_setup_names_the_field(self, tmp_path, capsys):
        def breaker(document):
            del document["state"]["setup"]

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint])
        self._assert_one_line_error(capsys, exit_code, "missing field 'setup'")

    @pytest.mark.parametrize(
        ("counters", "fragment"),
        [
            ({"n_evaluations": -500, "counter": -3}, "n_evaluations must be a non-negative"),
            ({"counter": -3}, "counter must be a non-negative"),
            ({"n_evaluations": True}, "n_evaluations must be a non-negative"),
            ({"n_evaluations": 12.0}, "n_evaluations must be a non-negative"),
            ({"n_low_evaluations": 10**9}, "n_low_evaluations 1000000000 exceeds"),
        ],
    )
    def test_resume_rejects_tampered_problem_counters(
        self, tmp_path, capsys, counters, fragment
    ):
        def breaker(document):
            document["state"]["problem"].update(counters)

        checkpoint = self._broken_checkpoint(tmp_path, capsys, breaker)
        exit_code = main(["optimize", "--resume", checkpoint, "--generations", "4"])
        self._assert_one_line_error(capsys, exit_code, fragment)


class TestDisguiseCodes:
    def test_disguises_a_code_file(self, tmp_path, capsys):
        codes = tmp_path / "codes.txt"
        codes.write_text("0 1 2 3\n3 2\n", encoding="utf-8")
        output = tmp_path / "out.txt"
        assert main([
            "disguise", str(codes), "--matrix", "warner:0.8", "--categories", "4",
            "--output", str(output),
        ]) == 0
        disguised = [int(token) for token in output.read_text().split()]
        assert len(disguised) == 6 and all(0 <= code < 4 for code in disguised)

    @pytest.mark.parametrize("code", ["99999999999999999999999", "-9223372036854775809"])
    def test_code_beyond_int64_exits_2(self, tmp_path, capsys, code):
        codes = tmp_path / "codes.txt"
        codes.write_text(f"1\n{code}\n", encoding="utf-8")
        exit_code = main(["disguise", str(codes), "--matrix", "warner:0.8", "--categories", "4"])
        assert exit_code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == [f"optrr: error: input code {code} does not fit in int64"]

    @pytest.mark.parametrize(
        ("content", "named"),
        [
            (b"1\n\xff\xfe\n", r"'\\xff\\xfe'"),
            (b"1_0\n", "'1_0'"),
            ("٣\n".encode(), "'٣'"),
            (b"1 + 2\n", "'+'"),
            (b"--5\n", "'--5'"),
        ],
    )
    def test_token_outside_the_grammar_exits_2(self, tmp_path, capsys, content, named):
        codes = tmp_path / "codes.txt"
        codes.write_bytes(content)
        exit_code = main(["disguise", str(codes), "--matrix", "warner:0.8", "--categories", "4"])
        assert exit_code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert err_lines == [f"optrr: error: input code {named} is not an integer"]

    def test_nineteen_digit_code_that_fits_is_read(self, tmp_path, capsys):
        codes = tmp_path / "codes.txt"
        codes.write_text("0000000000000000007\n", encoding="utf-8")
        exit_code = main(["disguise", str(codes), "--matrix", "warner:0.8", "--categories", "8"])
        assert exit_code == 0
        assert "1 record(s) in 1 chunk(s)" in capsys.readouterr().err

    #: sha256 of the disguised codes and the report for the 50 000-code input
    #: below (chunk size 4096), from file and from stdin.
    PINNED_CODES = "541d37f2427701504d5ddc4b6c1a8d8722ea3ab9ceb4e79f4b61d0c22d81bf29"
    PINNED_REPORT = "22a7bc073ae907447f5207b0052becb12a2d13db1da1138bb68bcc0631c83ed2"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_pinned_disguise_digests(self, tmp_path, capsysbinary, monkeypatch, source):
        import io

        import numpy as np

        codes = np.random.default_rng(5).integers(0, 8, size=50_000)
        content = ("\n".join(map(str, codes.tolist())) + "\n").encode()
        report = tmp_path / "report.json"
        argv = ["disguise", "--matrix", "warner:0.75", "--categories", "8", "--seed", "11",
                "--chunk-size", "4096", "--report", str(report)]
        if source == "file":
            (tmp_path / "codes.txt").write_bytes(content)
            argv.append(str(tmp_path / "codes.txt"))
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(content)))
        assert main(argv) == 0
        disguised = capsysbinary.readouterr().out
        assert hashlib.sha256(disguised).hexdigest() == self.PINNED_CODES
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.PINNED_REPORT


class TestRunCheckpointFlags:
    FAST_RUN = ["run", "fig4a", "--generations", "4", "--population", "8"]

    def test_checkpoint_dir_cleaned_after_success(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        code = main(self.FAST_RUN + ["--checkpoint-dir", str(parts)])
        assert code in (0, 1)  # reproduction verdict is budget-dependent
        assert not list(parts.glob("*.json"))

    def test_resume_alias_sets_checkpoint_dir(self, tmp_path, capsys):
        parts = tmp_path / "parts"
        code = main(self.FAST_RUN + ["--resume", str(parts)])
        assert code in (0, 1)
        assert parts.is_dir()

    def test_checkpoint_every_requires_directory(self, capsys):
        assert main(self.FAST_RUN + ["--checkpoint-every", "2"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_deadline_flag(self, capsys):
        code = main(self.FAST_RUN + ["--deadline", "9999"])
        assert code in (0, 1)


def _malformed_fronts(tmp_path):
    """``optimization_result`` documents broken the ways users hit: a point
    without its matrix, a ``points`` field that is not a list, a non-finite,
    bool or string objective, a non-integral, string or negative count, and
    matrices of two sizes in one front."""
    from repro.core.result import FrontRow
    from repro.io import matrix_to_dict, result_to_dict
    from repro.rr.matrix import RRMatrix
    from tests.oracles.individual import result_from_rows

    point = FrontRow(0.0, 0.5, 1.0, RRMatrix.identity(2))
    document = result_to_dict(result_from_rows([point, point]))

    def with_point(index, **fields):
        copy = json.loads(json.dumps(document))
        copy["points"][index].update(fields)
        return copy

    no_matrix = with_point(0)
    del no_matrix["points"][0]["matrix"]
    cases = {
        "no-matrix": no_matrix,
        "int-points": {**document, "points": 7},
        "mixed-sizes": with_point(1, matrix=matrix_to_dict(RRMatrix.identity(3))),
    }
    for index, value in enumerate([float("nan"), float("inf"), True, "0.5"]):
        cases[f"privacy-{index}"] = with_point(0, privacy=value)
    for key, value in (("n_evaluations", 3.7), ("n_evaluations", "12"), ("n_generations", -5)):
        cases[f"{key}-{value}"] = {**document, key: value}
    paths = []
    for name, case in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        paths.append(path)
    return paths


class TestMalformedFrontDocuments:
    def _assert_usage_error(self, capsys, exit_code):
        assert exit_code == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("optrr: error: cannot read --front")

    def test_disguise_front_exits_2(self, capsys, tmp_path):
        codes = tmp_path / "codes.txt"
        codes.write_text("0 1 1 0\n", encoding="utf-8")
        for front in _malformed_fronts(tmp_path):
            self._assert_usage_error(
                capsys, main(["disguise", str(codes), "--front", str(front)])
            )

    def test_pipeline_front_exits_2(self, capsys, tmp_path):
        for front in _malformed_fronts(tmp_path):
            self._assert_usage_error(
                capsys, main(["pipeline", *FAST_PIPELINE, "--front", str(front)])
            )
