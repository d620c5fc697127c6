"""Corruption-tolerant checkpoint state: rotation, fallback, quarantine —
and the headline acceptance scenario: resume from a deliberately truncated
newest checkpoint recovers from the previous valid one bit-exactly."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import CheckpointCorruptionError
from repro.faults.injector import fault_plan
from repro.faults.plan import parse_fault_plan
from repro.io import (
    checkpoint_quarantine_path,
    checkpoint_rotation_path,
    load_checkpoint,
    load_checkpoint_with_fallback,
    save_checkpoint,
)


def _document(generation: int) -> dict:
    return {
        "type": "checkpoint",
        "format_version": 1,
        "generation": generation,
    }


def _truncate(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class TestRotation:
    def test_second_save_rotates_the_first(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(_document(1), path)
        assert not checkpoint_rotation_path(path).exists()
        save_checkpoint(_document(2), path)
        assert load_checkpoint(path)["generation"] == 2
        assert load_checkpoint(checkpoint_rotation_path(path))["generation"] == 1

    def test_injected_truncation_fires_on_save(self, tmp_path):
        path = tmp_path / "run-ck.json"
        with fault_plan(parse_fault_plan("truncate-checkpoint@file:run-ck")):
            save_checkpoint(_document(1), path)
        with pytest.raises(CheckpointCorruptionError, match="not decodable"):
            load_checkpoint(path)


class TestLoadDistinguishesCorruptFromMissing:
    def test_missing_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.json")

    def test_undecodable_is_corruption(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(_document(1), path)
        _truncate(path)
        with pytest.raises(CheckpointCorruptionError, match="not decodable"):
            load_checkpoint(path)

    def test_wrong_envelope_is_corruption(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"type": "something_else"}', encoding="utf-8")
        with pytest.raises(CheckpointCorruptionError, match="envelope"):
            load_checkpoint(path)


class TestFallback:
    def test_falls_back_to_rotation_and_quarantines_newest(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(_document(1), path)
        save_checkpoint(_document(2), path)
        _truncate(path)
        document, loaded_from = load_checkpoint_with_fallback(path)
        assert document["generation"] == 1
        assert loaded_from == checkpoint_rotation_path(path)
        # The corrupt newest is parked for forensics, not deleted.
        assert checkpoint_quarantine_path(path).is_file()
        assert not path.exists()

    def test_valid_newest_wins(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(_document(1), path)
        save_checkpoint(_document(2), path)
        document, loaded_from = load_checkpoint_with_fallback(path)
        assert document["generation"] == 2
        assert loaded_from == path

    @pytest.mark.parametrize("edit", ["type", "format_version"])
    def test_edited_envelope_is_rejected_in_place(self, tmp_path, edit):
        path = tmp_path / "ck.json"
        save_checkpoint(_document(1), path)
        save_checkpoint(_document(2), path)
        document = load_checkpoint(path)
        del document[edit]
        path.write_text(json.dumps(document), encoding="utf-8")
        # Decodable, so not a torn write: no quarantine, no .prev fallback.
        with pytest.raises(CheckpointCorruptionError, match="envelope"):
            load_checkpoint_with_fallback(path)
        assert path.is_file()
        assert not checkpoint_quarantine_path(path).exists()
        assert checkpoint_rotation_path(path).is_file()

    def test_all_candidates_corrupt_raises_corruption(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(_document(1), path)
        save_checkpoint(_document(2), path)
        _truncate(path)
        _truncate(checkpoint_rotation_path(path))
        with pytest.raises(CheckpointCorruptionError, match="both corrupt"):
            load_checkpoint_with_fallback(path)

    def test_no_candidates_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint_with_fallback(tmp_path / "absent.json")


#: Tiny optimizer workload shared by the resume acceptance tests.
FAST_OPTIMIZE = [
    "optimize", "--distribution", "normal", "--categories", "6",
    "--records", "2000", "--population", "8", "--seed", "3",
]


class TestTruncatedResumeAcceptance:
    def test_resume_from_truncated_newest_is_bit_exact(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        checkpoint = tmp_path / "ck.json"
        assert main(FAST_OPTIMIZE + ["--generations", "6", "--output", str(full)]) == 0
        # Interrupted run with per-generation checkpoints: ck.json is the
        # generation-3 snapshot, ck.json.prev the generation-2 one.
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "3", "--checkpoint", str(checkpoint),
               "--checkpoint-every", "1"]
        ) == 0
        assert checkpoint_rotation_path(checkpoint).is_file()
        _truncate(checkpoint)
        # Resume quarantines the torn newest checkpoint, falls back to the
        # previous valid one, re-runs the lost generation — and still lands
        # on the byte-identical final result.
        assert main(
            ["optimize", "--resume", str(checkpoint), "--generations", "6",
             "--output", str(resumed)]
        ) == 0
        stderr = capsys.readouterr().err
        assert "ck.json.prev" in stderr
        assert full.read_bytes() == resumed.read_bytes()
        assert checkpoint_quarantine_path(checkpoint).is_file()

    def test_resume_with_both_candidates_corrupt_is_a_clean_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        assert main(
            FAST_OPTIMIZE
            + ["--generations", "3", "--checkpoint", str(checkpoint),
               "--checkpoint-every", "1"]
        ) == 0
        _truncate(checkpoint)
        _truncate(checkpoint_rotation_path(checkpoint))
        assert main(["optimize", "--resume", str(checkpoint)]) == 2
        assert "cannot read --resume" in capsys.readouterr().err
