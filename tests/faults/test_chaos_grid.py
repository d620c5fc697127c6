"""Grid-level chaos: every fault class, single- and multi-worker.

Each scenario asserts the grid under faults produces results equal to the
fault-free run — resilience that changed the answer would be worse than no
resilience at all.  Worker functions are module-level so worker processes
can pickle them by reference.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import FaultInjectedError, GridCellError
from repro.experiments.grid import DocumentCache, RetryPolicy, run_grid
from repro.faults.injector import FAULTS_ENVIRONMENT_VARIABLE, fault_plan
from repro.faults.plan import parse_fault_plan


def _worker(payload):
    return {"type": "chaos_doc", "value": payload["value"] * 2}


def _parse(document):
    return int(document["value"])


def _values(report):
    return [None if o is None else o.value for o in report.outcomes]


PAYLOADS = [{"value": v} for v in (5, 1, 9, 4)]
FAULT_FREE = [10, 2, 18, 8]


class TestTransientErrors:
    def test_oserror_retried_to_success_serial(self):
        with fault_plan(parse_fault_plan("oserror@cell:1*2")):
            report = run_grid(
                PAYLOADS, _worker, parse=_parse,
                policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
            )
        assert _values(report) == FAULT_FREE
        assert report.complete
        history = report.attempt_histories[1]
        assert [attempt.status for attempt in history] == ["error", "error", "ok"]
        assert "OSError" in history[0].error

    def test_oserror_retried_to_success_multiworker(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "oserror@cell:2*1")
        report = run_grid(
            PAYLOADS, _worker, parse=_parse, n_jobs=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        assert _values(report) == FAULT_FREE
        assert [a.status for a in report.attempt_histories[2]] == ["error", "ok"]

    def test_exhausted_attempts_fail_fast_by_default(self):
        with fault_plan(parse_fault_plan("oserror@cell:0")):
            with pytest.raises(OSError, match="injected transient"):
                run_grid(
                    PAYLOADS, _worker, parse=_parse,
                    policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                )

    def test_real_exception_type_propagates_from_worker_process(self, monkeypatch):
        # The worker's actual exception object crosses the process boundary.
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "error@cell:0")
        with pytest.raises(FaultInjectedError, match="cell 0"):
            run_grid(
                PAYLOADS, _worker, parse=_parse, n_jobs=2,
                policy=RetryPolicy(max_attempts=1),
            )


class TestQuarantine:
    def test_poison_cell_quarantined_with_keep_going(self):
        with fault_plan(parse_fault_plan("error@cell:2")):
            report = run_grid(
                PAYLOADS, _worker, parse=_parse,
                policy=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, keep_going=True
                ),
            )
        assert _values(report) == [10, 2, None, 8]
        assert not report.complete
        (failure,) = report.failures
        assert failure.index == 2
        assert "FaultInjectedError" in failure.message
        with pytest.raises(GridCellError, match="cell 2"):
            report.require_complete()

    def test_failure_manifest_structure(self):
        with fault_plan(parse_fault_plan("error@cell:2; oserror@cell:1*1")):
            report = run_grid(
                PAYLOADS, _worker, parse=_parse,
                policy=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, keep_going=True
                ),
            )
        manifest = report.failure_manifest(describe=lambda index: {"label": f"c{index}"})
        assert manifest["type"] == "failure_manifest"
        assert manifest["quarantined_cells"] == [2]
        by_index = {cell["index"]: cell for cell in manifest["cells"]}
        # Cell 1 recovered on retry: present in the manifest, not quarantined.
        assert by_index[1]["quarantined"] is False
        assert by_index[1]["label"] == "c1"
        assert [a["status"] for a in by_index[1]["attempts"]] == ["error", "ok"]
        assert by_index[2]["quarantined"] is True
        assert [a["status"] for a in by_index[2]["attempts"]] == ["error", "error"]

    def test_manifest_is_none_when_nothing_failed(self):
        report = run_grid(PAYLOADS, _worker, parse=_parse)
        assert report.failure_manifest() is None
        assert report.attempt_histories == {}


class TestCrashes:
    def test_crashed_worker_is_replaced_and_cell_retried(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "crash@cell:1*1")
        report = run_grid(
            PAYLOADS, _worker, parse=_parse, n_jobs=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        assert _values(report) == FAULT_FREE
        assert [a.status for a in report.attempt_histories[1]] == ["crash", "ok"]

    def test_persistent_crash_quarantined_with_keep_going(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "crash@cell:0")
        report = run_grid(
            PAYLOADS, _worker, parse=_parse, n_jobs=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0, keep_going=True),
        )
        assert _values(report) == [None, 2, 18, 8]
        (failure,) = report.failures
        assert failure.index == 0
        assert all(a.status == "crash" for a in failure.attempts)

    def test_persistent_crash_aborts_without_keep_going(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "crash@cell:0")
        with pytest.raises(GridCellError, match="cell 0"):
            run_grid(
                PAYLOADS, _worker, parse=_parse, n_jobs=2,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
            )


class TestHangsAndTimeouts:
    def test_hung_cell_killed_and_retried(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "hang@cell:3*1=60")
        # cell_timeout forces process isolation even at n_jobs=1.
        report = run_grid(
            PAYLOADS, _worker, parse=_parse,
            policy=RetryPolicy(
                max_attempts=2, backoff_base=0.0, cell_timeout=0.5
            ),
        )
        assert _values(report) == FAULT_FREE
        history = report.attempt_histories[3]
        assert [a.status for a in history] == ["timeout", "ok"]
        assert "timeout" in history[0].error

    def test_persistent_hang_quarantined_with_keep_going(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENVIRONMENT_VARIABLE, "hang@cell:1=60")
        report = run_grid(
            PAYLOADS, _worker, parse=_parse, n_jobs=2,
            policy=RetryPolicy(
                max_attempts=1, cell_timeout=0.5, keep_going=True
            ),
        )
        assert _values(report) == [10, None, 18, 8]
        (failure,) = report.failures
        assert failure.attempts[-1].status == "timeout"


class TestCacheCorruption:
    def test_corrupted_store_quarantined_and_rerun(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="chaos_doc")
        keys = ["a", "b", "c", "d"]
        with fault_plan(parse_fault_plan("corrupt-cache@cell:0*1")):
            faulted = run_grid(PAYLOADS, _worker, parse=_parse, keys=keys, cache=cache)
        assert _values(faulted) == FAULT_FREE
        # The stored entry was corrupted after the store; the rerun must
        # quarantine it (preserving the evidence) and recompute the cell.
        rerun = run_grid(PAYLOADS, _worker, parse=_parse, keys=keys, cache=cache)
        assert _values(rerun) == FAULT_FREE
        assert [o.from_cache for o in rerun.outcomes] == [False, True, True, True]
        assert (tmp_path / "a.json.corrupt").is_file()
        # The fresh entry replaced the corrupt one; a third run replays it.
        replay = run_grid(PAYLOADS, _worker, parse=_parse, keys=keys, cache=cache)
        assert all(o.from_cache for o in replay.outcomes)
        assert _values(replay) == FAULT_FREE


class TestFaultFreeEquivalence:
    def test_resilience_policy_does_not_change_clean_results(self, tmp_path):
        plain = run_grid(PAYLOADS, _worker, parse=_parse)
        resilient = run_grid(
            PAYLOADS, _worker, parse=_parse,
            policy=RetryPolicy(max_attempts=3, cell_timeout=30.0, keep_going=True),
        )
        assert json.dumps([o.document for o in plain.outcomes], sort_keys=True) == \
            json.dumps([o.document for o in resilient.outcomes], sort_keys=True)
        assert resilient.failure_manifest() is None

    def test_faulted_run_caches_the_same_documents(self, tmp_path):
        keys = ["a", "b", "c", "d"]
        clean = DocumentCache(tmp_path / "clean", document_type="chaos_doc")
        run_grid(PAYLOADS, _worker, parse=_parse, keys=keys, cache=clean)
        chaotic = DocumentCache(tmp_path / "chaos", document_type="chaos_doc")
        with fault_plan(parse_fault_plan("oserror@cell:1*1; oserror@cell:3*1")):
            run_grid(
                PAYLOADS, _worker, parse=_parse, keys=keys, cache=chaotic,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
            )
        for key in keys:
            assert clean.path_for_key(key).read_bytes() == \
                chaotic.path_for_key(key).read_bytes()
