"""Tests for the injection hooks themselves (activation, firing, no-ops)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import FaultInjectedError
from repro.faults.injector import (
    FAULTS_ENVIRONMENT_VARIABLE,
    active_fault_plan,
    corrupt_stored_document,
    fault_plan,
    fire_cell_faults,
    install_fault_plan,
    truncate_checkpoint_file,
)
from repro.faults.plan import parse_fault_plan


class TestActivation:
    def test_no_plan_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENVIRONMENT_VARIABLE, raising=False)
        install_fault_plan(None)
        assert active_fault_plan() is None
        fire_cell_faults(0, 1)  # a no-op, not an error

    def test_environment_variable_activates(self, monkeypatch):
        install_fault_plan(None)
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "error@cell:5")
        plan = active_fault_plan()
        assert plan is not None
        assert plan.specs[0].selector == "5"
        # The parse is cached per text value and refreshed when it changes.
        assert active_fault_plan() is plan
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "error@cell:6")
        assert active_fault_plan().specs[0].selector == "6"

    def test_installed_plan_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "error@cell:1")
        with fault_plan(parse_fault_plan("error@cell:2")) as installed:
            assert active_fault_plan() is installed

    def test_context_manager_restores_previous_plan(self):
        install_fault_plan(None)
        with fault_plan(parse_fault_plan("error@cell:1")):
            pass
        assert active_fault_plan() is None


class TestCellFaults:
    def test_error_fault_raises_inside_the_cell(self):
        with fault_plan(parse_fault_plan("error@cell:3")):
            fire_cell_faults(2, 1)  # other cells untouched
            with pytest.raises(FaultInjectedError, match="cell 3 attempt 1"):
                fire_cell_faults(3, 1)

    def test_oserror_fault_is_a_real_oserror(self):
        with fault_plan(parse_fault_plan("oserror@cell:0*2")):
            with pytest.raises(OSError, match="injected transient"):
                fire_cell_faults(0, 1)
            with pytest.raises(OSError):
                fire_cell_faults(0, 2)
            fire_cell_faults(0, 3)  # transient: attempt 3 sails through


class TestCorruptionHooks:
    def test_stored_document_is_truncated_when_planned(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"value": list(range(50))}), encoding="utf-8")
        with fault_plan(parse_fault_plan("corrupt-cache@cell:4*1")):
            corrupt_stored_document(path, index=3, attempt=1)  # wrong cell
            json.loads(path.read_text(encoding="utf-8"))
            corrupt_stored_document(path, index=4, attempt=2)  # past times
            json.loads(path.read_text(encoding="utf-8"))
            corrupt_stored_document(path, index=4, attempt=1)
            with pytest.raises(ValueError):
                json.loads(path.read_text(encoding="utf-8"))

    def test_checkpoint_truncation_targets_by_name(self, tmp_path):
        target = tmp_path / "run-ck.json"
        other = tmp_path / "other.json"
        payload = json.dumps({"state": list(range(50))})
        target.write_text(payload, encoding="utf-8")
        other.write_text(payload, encoding="utf-8")
        with fault_plan(parse_fault_plan("truncate-checkpoint@file:run-ck")):
            truncate_checkpoint_file(target)
            truncate_checkpoint_file(other)
        with pytest.raises(ValueError):
            json.loads(target.read_text(encoding="utf-8"))
        json.loads(other.read_text(encoding="utf-8"))

    def test_hooks_are_inert_without_a_plan(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULTS_ENVIRONMENT_VARIABLE, raising=False)
        install_fault_plan(None)
        path = tmp_path / "doc.json"
        path.write_text("{}", encoding="utf-8")
        corrupt_stored_document(path, 0, 1)
        truncate_checkpoint_file(path)
        assert path.read_text(encoding="utf-8") == "{}"
