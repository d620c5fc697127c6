"""Tests for the generic cached-grid executor."""

from __future__ import annotations

import json

import pytest

from repro.experiments.grid import DocumentCache, GridOutcome, run_grid


def execute_grid(payloads, worker, **options) -> list[GridOutcome]:
    """Run a grid and require every cell to produce a result."""
    return run_grid(payloads, worker, **options).require_complete()


def _worker(payload):
    if payload.get("explode"):
        raise RuntimeError("boom")
    return {"type": "test_doc", "value": payload["value"] * 2}


def _parse(document):
    return int(document["value"])


class TestDocumentCache:
    def test_store_then_load(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        cache.store_document("k1", {"type": "test_doc", "value": 4})
        assert cache.load_document("k1") == {"type": "test_doc", "value": 4}

    def test_miss_returns_none(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        assert cache.load_document("absent") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        cache.path_for_key("k").write_text("{not json", encoding="utf-8")
        assert cache.load_document("k") is None

    def test_wrong_type_is_a_miss(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        cache.path_for_key("k").write_text(json.dumps({"type": "other"}), encoding="utf-8")
        assert cache.load_document("k") is None

    def test_writes_are_canonical_json(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        cache.store_document("k", {"b": 1, "a": 2, "type": "test_doc"})
        text = cache.path_for_key("k").read_text(encoding="utf-8")
        assert text == json.dumps({"b": 1, "a": 2, "type": "test_doc"},
                                  indent=2, sort_keys=True)


class TestExecuteGrid:
    def test_results_in_grid_order(self):
        payloads = [{"value": v} for v in (5, 1, 9)]
        outcomes = execute_grid(payloads, _worker, parse=_parse)
        assert [o.value for o in outcomes] == [10, 2, 18]
        assert all(not o.from_cache for o in outcomes)

    def test_parallel_matches_serial(self):
        payloads = [{"value": v} for v in range(6)]
        serial = execute_grid(payloads, _worker, parse=_parse, n_jobs=1)
        parallel = execute_grid(payloads, _worker, parse=_parse, n_jobs=2)
        assert [o.value for o in serial] == [o.value for o in parallel]

    def test_cache_replay(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        payloads = [{"value": v} for v in (1, 2)]
        keys = ["a", "b"]
        cold = execute_grid(payloads, _worker, parse=_parse, keys=keys, cache=cache)
        warm = execute_grid(payloads, _worker, parse=_parse, keys=keys, cache=cache)
        assert [o.from_cache for o in cold] == [False, False]
        assert [o.from_cache for o in warm] == [True, True]
        assert [o.value for o in warm] == [o.value for o in cold]

    def test_unparseable_cache_entry_reruns(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        cache.store_document("a", {"type": "test_doc"})  # missing "value"
        outcomes = execute_grid(
            [{"value": 3}], _worker, parse=_parse, keys=["a"], cache=cache
        )
        assert outcomes[0].value == 6
        assert not outcomes[0].from_cache

    def test_cache_without_keys_rejected(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        with pytest.raises(ValueError, match="keys are required"):
            execute_grid([{"value": 1}], _worker, parse=_parse, cache=cache)

    def test_mismatched_key_count_rejected(self):
        with pytest.raises(ValueError, match="keys"):
            execute_grid([{"value": 1}], _worker, parse=_parse, keys=["a", "b"])

    def test_worker_failure_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            execute_grid([{"value": 1, "explode": True}], _worker, parse=_parse)

    def test_progress_callback_sees_every_cell(self, tmp_path):
        cache = DocumentCache(tmp_path, document_type="test_doc")
        execute_grid([{"value": 1}], _worker, parse=_parse, keys=["a"], cache=cache)
        seen = []
        execute_grid(
            [{"value": 1}, {"value": 2}], _worker, parse=_parse,
            keys=["a", "b"], cache=cache,
            on_task_done=lambda index, cached: seen.append((index, cached)),
        )
        assert sorted(seen) == [(0, True), (1, False)]


# -- interrupted-cell resume ---------------------------------------------------
#: Module-level so the grid executor can pickle it by reference; configured
#: through the payload because worker processes share no state with the test.
def _optimizer_cell_worker(payload):
    """A grid cell that runs a real OptRR optimization — and optionally
    crashes after a fixed number of generations (simulating a kill)."""
    import numpy as np

    from repro.core.config import OptRRConfig
    from repro.core.optimizer import OptRROptimizer
    from repro.data.synthetic import normal_distribution
    from repro.io import result_to_dict

    optimizer = OptRROptimizer(
        normal_distribution(6),
        3000,
        OptRRConfig(
            population_size=8,
            archive_size=8,
            n_generations=int(payload["generations"]),
            delta=0.85,
            seed=int(payload["seed"]),
        ),
    )
    driver = optimizer.driver()
    executed = 0
    for _snapshot in driver.steps():
        executed += 1
        crash_after = payload.get("crash_after")
        if crash_after is not None and executed >= crash_after:
            raise RuntimeError("simulated mid-cell kill")
    result = driver.result()
    document = result_to_dict(result, include_optimal_set=True)
    document["type"] = "test_doc"
    document["value"] = executed  # generations executed in THIS attempt
    document["front_privacy"] = [float(p) for p in np.asarray(result.privacy_values())]
    return document


class TestInterruptedCellResume:
    """A cell killed mid-optimization resumes from its partial checkpoint on
    the next grid run — producing the byte-identical result document while
    re-executing only the remaining generations."""

    def test_cell_resumes_from_partial_checkpoint(self, tmp_path):
        cache = DocumentCache(tmp_path / "cache", document_type="test_doc")
        partial = tmp_path / "cache" / "partial"
        payload = {"generations": 6, "seed": 4}
        kwargs = dict(
            worker=_optimizer_cell_worker,
            parse=lambda document: document,
            keys=["cell-key"],
            cache=cache,
            checkpoint_dir=partial,
            checkpoint_every=1,
        )
        # Attempt 1 dies after 2 generations; the partial checkpoint survives.
        with pytest.raises(RuntimeError, match="simulated"):
            execute_grid([dict(payload, crash_after=2)], **kwargs)
        assert list(partial.glob("cell-key-*.json"))
        # Attempt 2 completes — running only the remaining generations.
        outcomes = execute_grid([payload], **kwargs)
        resumed = outcomes[0].document
        assert resumed["value"] == 6 - 2  # only generations 2..5 re-ran
        # Partials are cleaned up once the cell's result is safely cached.
        assert not list(partial.glob("cell-key-*.json"))
        # The resumed document matches an uninterrupted cold run bit for bit.
        uninterrupted = execute_grid(
            [payload],
            worker=_optimizer_cell_worker,
            parse=lambda document: document,
        )[0].document
        uninterrupted["value"] = resumed["value"]  # attempt-local by design
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            uninterrupted, sort_keys=True
        )

    def test_checkpointing_does_not_change_results(self, tmp_path):
        payload = {"generations": 4, "seed": 9}
        plain = execute_grid(
            [payload], worker=_optimizer_cell_worker, parse=lambda d: d
        )[0].document
        checkpointed = execute_grid(
            [payload],
            worker=_optimizer_cell_worker,
            parse=lambda d: d,
            checkpoint_dir=tmp_path / "partial",
            checkpoint_every=1,
        )[0].document
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            checkpointed, sort_keys=True
        )
