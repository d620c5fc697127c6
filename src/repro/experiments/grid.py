"""Generic content-addressed grid execution with retry and quarantine.

Both orchestration subsystems — multi-seed experiment campaigns
(:mod:`repro.experiments.campaign`) and downstream-mining pipelines
(:mod:`repro.pipeline`) — share the same execution shape: a deterministic
grid of independent tasks, each fully described by a JSON-compatible payload,
executed serially or across disposable worker processes, with per-task
results stored in a content-addressed on-disk cache as canonical JSON
documents.  This module factors that shape out so every grid-shaped workload
gets the same guarantees:

* **Order independence.**  Results are collected by grid position, never by
  completion order, so worker count cannot change the outcome.
* **Cache/fresh interchangeability.**  Fresh results round-trip through the
  same canonical document that the cache stores, so a cached replay is
  bit-for-bit the same data as a cold run.
* **Resilience.**  A :class:`RetryPolicy` grants each cell a bounded number
  of attempts with capped deterministic exponential backoff, an optional
  per-cell wall-clock timeout enforced by killing and replacing the worker
  process (:mod:`repro.experiments.procpool`), and — with ``keep_going`` —
  poison-cell quarantine: a cell that exhausts its attempts is recorded in
  the :class:`GridReport` failure manifest while the rest of the grid runs
  to completion.  Without ``keep_going`` the default remains fail-fast: the
  first exhausted cell aborts the grid (and kills the in-flight workers).
* **Corruption tolerance.**  Cache entries that no longer decode — torn
  writes, truncation, bit rot — are *quarantined* (renamed to
  ``*.json.corrupt`` with a logged warning) rather than silently shadowing
  the cell, and the cell re-runs.

The chaos suite (``tests/faults/``) drives these guarantees through the
deterministic fault-injection hooks of :mod:`repro.faults`, which are inert
no-ops unless a fault plan is active.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.emoo.driver import DEFAULT_CHECKPOINT_EVERY, CheckpointScope, checkpoint_scope
from repro.exceptions import GridCellError, ValidationError
from repro.experiments.procpool import AttemptOutcome, ProcessCellRunner
from repro.faults.injector import corrupt_stored_document, fire_cell_faults
from repro.metrics.evaluation import evaluate_on_one_thread
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Manifest schema version emitted by :meth:`GridReport.failure_manifest`.
FAILURE_MANIFEST_VERSION = 1


def _run_cell(
    bundle: tuple[Callable[[Any], dict[str, Any]], Any, str | None, str, int, int, int],
) -> dict[str, Any]:
    """Execute one grid-cell attempt under its checkpoint scope.

    Module-level so worker processes can pickle it by reference.  Every
    optimizer run the cell performs claims a ``<token>-<i>.json`` checkpoint
    file inside ``directory`` and auto-resumes from it, so a cell that was
    killed mid-optimization (or timed out and was replaced) continues from
    its last checkpoint instead of recomputing — and, by the driver's resume
    invariant, still produces the byte-identical result document.  The
    cell's partial checkpoints are deleted only after the result document is
    safely collected and cached (in the grid's collection step, not here — a
    crash between the cell finishing and the result landing must not lose
    the partials).
    """
    worker, payload, directory, token, every, index, attempt = bundle
    fire_cell_faults(index, attempt)
    if directory is None:
        return worker(payload)
    with checkpoint_scope(directory, token=token, every=every):
        return worker(payload)


def _run_cell_on_one_thread(
    bundle: tuple[Callable[[Any], dict[str, Any]], Any, str | None, str, int, int, int],
) -> dict[str, Any]:
    """:func:`_run_cell` in an attempt process that runs beside sibling
    attempts: its batch evaluation stays on one thread, so the grid's worker
    count is the only parallelism."""
    evaluate_on_one_thread()
    return _run_cell(bundle)


class DocumentCache:
    """Content-addressed on-disk store of canonical JSON documents.

    One JSON file per key, named ``<key>.json``.  Writes go through a
    temporary file plus :func:`os.replace` so concurrent processes sharing a
    cache directory never observe partial documents.

    Parameters
    ----------
    directory:
        Cache directory; created (with parents) when missing.
    document_type:
        Expected ``type`` field of stored documents.  Entries with any other
        type count as misses, so unrelated caches can never cross-replay.
    """

    def __init__(self, directory: str | Path, *, document_type: str) -> None:
        self.directory = Path(directory)
        self.document_type = document_type
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for_key(self, key: str) -> Path:
        """Where the document for ``key`` lives (whether or not it exists)."""
        return self.directory / f"{key}.json"

    def load_document(self, key: str) -> dict[str, Any] | None:
        """Return the cached document for ``key``, or None on a miss.

        A *mistyped* entry (some other cache's document type) is a plain
        miss — unrelated caches may share a directory.  An *undecodable*
        entry (invalid JSON, or not a JSON object) is quarantined: renamed
        to ``<key>.json.corrupt`` with a logged warning, so the corruption
        is preserved for forensics instead of being silently overwritten,
        and the cell re-runs.
        """
        path = self.path_for_key(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            document = json.loads(text)
        except ValueError:
            self.quarantine_entry(key, "entry is not decodable JSON")
            return None
        if not isinstance(document, dict):
            self.quarantine_entry(key, "entry is not a JSON object")
            return None
        if document.get("type") != self.document_type:
            return None
        return document

    def quarantine_entry(self, key: str, reason: str) -> Path | None:
        """Rename ``key``'s entry to ``<key>.json.corrupt`` and warn.

        Returns the quarantine path, or None when the entry vanished (e.g.
        a concurrent process already quarantined it).  A later
        :meth:`store_document` for the same key writes a fresh entry; the
        quarantined file stays behind as evidence.
        """
        path = self.path_for_key(key)
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return None
        logger.warning(
            "cache: quarantined %s -> %s (%s)", path.name, target.name, reason
        )
        return target

    def store_document(self, key: str, document: dict[str, Any]) -> Path:
        """Atomically write ``key``'s document (canonical JSON) and return
        its path."""
        path = self.path_for_key(key)
        descriptor, temporary = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(document, indent=2, sort_keys=True))
            os.replace(temporary, path)
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        return path


@dataclass(frozen=True)
class RetryPolicy:
    """How a grid treats failing cells.

    Attributes
    ----------
    max_attempts:
        Attempts granted to each cell (>= 1).  The default of 1 means no
        retries — identical to the historical fail-fast grid.
    backoff_base:
        Backoff before the second attempt, in seconds.  Attempt ``n`` waits
        ``min(backoff_cap, backoff_base * 2**(n-1))`` — deterministic capped
        exponential backoff, no jitter (reproducibility beats thundering-herd
        avoidance at this scale).
    backoff_cap:
        Upper bound on a single backoff, in seconds.
    cell_timeout:
        Per-attempt wall-clock limit in seconds.  Enforcement requires
        process isolation, so setting it routes the grid through
        :class:`~repro.experiments.procpool.ProcessCellRunner` even when
        ``n_jobs == 1``.  ``None`` disables the limit.
    keep_going:
        Quarantine cells that exhaust their attempts (recording them in the
        :class:`GridReport`) and keep running the rest, instead of aborting
        the whole grid on the first poison cell.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    cell_timeout: float | None = None
    keep_going: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValidationError("backoff_base and backoff_cap must be >= 0")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValidationError(
                f"cell_timeout must be positive, got {self.cell_timeout}"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """Deterministic backoff after failed attempt number ``attempt``."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))


#: The historical grid behaviour: one attempt, fail fast, no timeout.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class CellAttempt:
    """One attempt at one grid cell, as recorded in the failure manifest."""

    attempt: int
    status: str  # "ok" | "error" | "timeout" | "crash"
    error: str = ""
    backoff_seconds: float = 0.0

    def to_document(self) -> dict[str, Any]:
        """Canonical JSON form (deterministic for a fixed policy+faults)."""
        return {
            "attempt": self.attempt,
            "status": self.status,
            "error": self.error or None,
            "backoff_seconds": self.backoff_seconds,
        }

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "CellAttempt":
        return cls(
            attempt=int(document["attempt"]),
            status=str(document["status"]),
            error=str(document.get("error") or ""),
            backoff_seconds=float(document.get("backoff_seconds", 0.0)),
        )


@dataclass(frozen=True)
class CellFailure:
    """A quarantined grid cell: every attempt exhausted, no result."""

    index: int
    key: str
    attempts: tuple[CellAttempt, ...]

    @property
    def message(self) -> str:
        """The last attempt's failure description."""
        return self.attempts[-1].error if self.attempts else ""


@dataclass(frozen=True)
class GridOutcome:
    """One executed grid cell.

    Attributes
    ----------
    value:
        The parsed task result (whatever ``parse`` returned).
    document:
        The canonical JSON document the result round-tripped through.
    from_cache:
        Whether the result was replayed from the cache.
    """

    value: Any
    document: dict[str, Any]
    from_cache: bool


@dataclass(frozen=True)
class GridReport:
    """Everything a grid run produced, including what went wrong.

    Attributes
    ----------
    outcomes:
        One entry per payload in grid order; ``None`` where the cell was
        quarantined.
    failures:
        The quarantined cells (empty on a clean run).
    attempt_histories:
        Attempt-by-attempt record for every cell that failed at least once —
        including cells that *recovered* on a retry (their history ends with
        an ``ok`` attempt).  Cells that succeeded first try do not appear.
    """

    outcomes: tuple[GridOutcome | None, ...]
    failures: tuple[CellFailure, ...] = ()
    attempt_histories: Mapping[int, tuple[CellAttempt, ...]] = field(
        default_factory=dict
    )

    @property
    def complete(self) -> bool:
        """Whether every cell produced a result."""
        return not self.failures

    def require_complete(self) -> list[GridOutcome]:
        """The outcomes, raising :class:`GridCellError` on any quarantine."""
        if self.failures:
            first = self.failures[0]
            raise GridCellError(
                f"{len(self.failures)} grid cell(s) failed after exhausting "
                f"their attempts; first: cell {first.index} ({first.key}): "
                f"{first.message}",
                failure=first,
            )
        return [outcome for outcome in self.outcomes if outcome is not None]

    def failure_manifest(
        self, describe: Callable[[int], Mapping[str, Any]] | None = None
    ) -> dict[str, Any] | None:
        """Structured record of retries and quarantines, or ``None``.

        Returns ``None`` when nothing failed — callers attach the manifest
        to result documents only when it exists, which keeps fault-free
        aggregates byte-identical to a build without the resilience layer.
        ``describe(index)`` may contribute domain labels (experiment id,
        seed, scheme...) to each cell entry.
        """
        if not self.attempt_histories:
            return None
        quarantined = {failure.index for failure in self.failures}
        cells: list[dict[str, Any]] = []
        for index in sorted(self.attempt_histories):
            entry: dict[str, Any] = {
                "index": index,
                "quarantined": index in quarantined,
            }
            if describe is not None:
                entry.update(describe(index))
            entry["attempts"] = [
                attempt.to_document() for attempt in self.attempt_histories[index]
            ]
            cells.append(entry)
        return {
            "type": "failure_manifest",
            "format_version": FAILURE_MANIFEST_VERSION,
            "quarantined_cells": sorted(quarantined),
            "cells": cells,
        }


def run_grid(
    payloads: Sequence[Any],
    worker: Callable[[Any], dict[str, Any]],
    *,
    parse: Callable[[dict[str, Any]], Any],
    keys: Sequence[str] | None = None,
    cache: DocumentCache | None = None,
    n_jobs: int = 1,
    on_task_done: Callable[[int, bool], None] | None = None,
    label: str = "grid",
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
) -> GridReport:
    """Run a grid of independent tasks under a retry policy.

    Parameters
    ----------
    payloads:
        One JSON/pickle-compatible payload per grid cell, in canonical grid
        order.  ``worker(payload)`` must return the cell's canonical result
        document (plain JSON-compatible data).
    worker:
        Module-level callable executing one cell (pickled by reference when
        it runs in a worker process).
    parse:
        Deserializer applied to every document — cached and fresh alike — so
        both paths return identical values.  A *cached* document that raises
        is quarantined (``*.json.corrupt``) and the cell re-runs; one that
        parses to None is a plain miss.  A fresh document failing to parse
        is a programming error and propagates.
    keys:
        Cache key per cell (required when ``cache`` is given).
    cache:
        Content-addressed document cache; ``None`` disables caching.
    n_jobs:
        Worker processes; ``1`` runs cells in this process — unless
        ``policy.cell_timeout`` is set, which forces process isolation so a
        hung cell can be killed.
    on_task_done:
        Optional progress callback invoked as ``(index, from_cache)`` when
        each cell finishes (completion order).
    label:
        Human-readable workload name used in log lines.
    checkpoint_dir:
        Directory for per-cell partial checkpoints.  Each cell attempt runs
        inside a :func:`~repro.emoo.driver.checkpoint_scope` keyed by its
        cache key (or grid index), so optimizer runs inside an interrupted
        cell — killed grid, crashed worker, or timed-out attempt — resume
        from their last checkpoint on the next attempt instead of
        recomputing the cell from scratch.  ``None`` disables cell
        checkpointing.
    checkpoint_every:
        Checkpoint cadence (generations) for the cell scopes.
    policy:
        Retry/timeout/quarantine behaviour; the default is the historical
        single-attempt fail-fast grid.

    Returns
    -------
    GridReport
        Outcomes in grid order (``None`` for quarantined cells), the
        quarantined-cell failures, and per-cell attempt histories.
    """
    if cache is not None and keys is None:
        raise ValueError("keys are required when a cache is given")
    if keys is not None and len(keys) != len(payloads):
        raise ValueError(f"{len(payloads)} payloads but {len(keys)} keys")

    values: dict[int, Any] = {}
    documents: dict[int, dict[str, Any]] = {}
    from_cache: dict[int, bool] = {}
    histories: dict[int, tuple[CellAttempt, ...]] = {}
    failures: list[CellFailure] = []
    pending: list[int] = []
    for index in range(len(payloads)):
        cached = cache.load_document(keys[index]) if cache is not None else None
        if cached is not None:
            try:
                value = parse(cached)
            except Exception as exc:
                # A cached document that decodes but no longer parses is
                # corrupt state, not a plain miss: preserve it for forensics
                # and re-run the cell.
                cache.quarantine_entry(
                    keys[index], f"cached document failed to parse: {exc}"
                )
                value = None
            if value is not None:
                values[index] = value
                documents[index] = cached
                from_cache[index] = True
                if on_task_done is not None:
                    on_task_done(index, True)
                continue
        pending.append(index)

    checkpoint_root = str(checkpoint_dir) if checkpoint_dir is not None else None

    def token_for(index: int) -> str:
        return keys[index] if keys is not None else f"cell-{index}"

    def bundle(index: int, attempt: int) -> tuple:
        return (
            worker, payloads[index], checkpoint_root, token_for(index),
            checkpoint_every, index, attempt,
        )

    def finish(index: int, document: dict[str, Any], attempt: int) -> None:
        # Fresh results also pass through the canonical document, so a later
        # cache replay is bit-for-bit the same data as this run.
        values[index] = parse(document)
        documents[index] = document
        from_cache[index] = False
        if cache is not None:
            stored = cache.store_document(keys[index], document)
            corrupt_stored_document(stored, index, attempt)
        if checkpoint_root is not None:
            # The result is collected (and cached); only now are the cell's
            # partial checkpoints redundant.
            CheckpointScope(directory=Path(checkpoint_root), token=token_for(index)).clear()
        if on_task_done is not None:
            on_task_done(index, False)

    failed: dict[int, list[CellAttempt]] = {}

    def on_outcome(outcome: AttemptOutcome) -> float | None:
        # The retry bookkeeping both executors feed every attempt through:
        # record the cell's attempt history, finish a success, and return
        # the backoff before a failed cell's next attempt (None once the
        # cell is settled).  A cell out of attempts is quarantined under
        # keep_going; otherwise its own exception (or a GridCellError for
        # a timeout or crash) is raised.
        index, attempt = outcome.index, outcome.attempt
        if outcome.status == "ok":
            record = failed.pop(index, None)
            if record is not None:
                record.append(CellAttempt(attempt, "ok"))
                histories[index] = tuple(record)
            assert outcome.document is not None
            finish(index, outcome.document, attempt)
            return None
        message = outcome.message
        record = failed.setdefault(index, [])
        if attempt < policy.max_attempts:
            backoff = policy.backoff_seconds(attempt)
            record.append(CellAttempt(attempt, outcome.status, message, backoff))
            logger.warning(
                "%s: cell %d attempt %d failed (%s); retrying in %.2fs",
                label, index, attempt, message, backoff,
            )
            return backoff
        record.append(CellAttempt(attempt, outcome.status, message))
        histories[index] = tuple(record)
        failed.pop(index, None)
        if policy.keep_going:
            failure = CellFailure(index=index, key=token_for(index), attempts=tuple(record))
            failures.append(failure)
            logger.error(
                "%s: cell %d (%s) quarantined after %d attempt(s): %s",
                label, index, failure.key, len(record), failure.message,
            )
            return None
        if outcome.error is not None:
            # Re-raise the cell's real exception so callers keep their
            # exception-type contracts (a process runner kills its remaining
            # workers on the way out).
            raise outcome.error
        raise GridCellError(
            f"{label}: cell {index} ({token_for(index)}) failed: {message}",
            failure=CellFailure(index, token_for(index), tuple(record)),
        )

    if pending:
        logger.info(
            "%s: running %d/%d tasks (%d cache hits) on %d worker(s)",
            label, len(pending), len(payloads), len(payloads) - len(pending),
            max(1, n_jobs),
        )

    use_processes = bool(pending) and (
        policy.cell_timeout is not None or (n_jobs > 1 and len(pending) > 1)
    )
    if not use_processes:
        _run_serial(pending, bundle, on_outcome)
    else:
        _run_isolated(
            pending, bundle, on_outcome, n_jobs=n_jobs, cell_timeout=policy.cell_timeout
        )

    return GridReport(
        outcomes=tuple(
            GridOutcome(
                value=values[index],
                document=documents[index],
                from_cache=from_cache[index],
            )
            if index in values
            else None
            for index in range(len(payloads))
        ),
        failures=tuple(failures),
        attempt_histories=histories,
    )


def _run_serial(
    pending: list[int],
    bundle: Callable[[int, int], tuple],
    on_outcome: Callable[[AttemptOutcome], float | None],
) -> None:
    """In-process execution: retries and backoff, but no timeout or crash
    isolation (a worker that dies takes this process with it)."""
    for index in pending:
        attempt = 1
        while True:
            try:
                document = _run_cell(bundle(index, attempt))
            except Exception as exc:
                outcome = AttemptOutcome(index, attempt, "error", error=exc)
            else:
                outcome = AttemptOutcome(index, attempt, "ok", document=document)
            backoff = on_outcome(outcome)
            if backoff is None:
                break
            time.sleep(backoff)
            attempt += 1


def _run_isolated(
    pending: list[int],
    bundle: Callable[[int, int], tuple],
    on_outcome: Callable[[AttemptOutcome], float | None],
    *,
    n_jobs: int,
    cell_timeout: float | None,
) -> None:
    """Process-isolated execution: kill-and-replace timeouts, crash
    classification, asynchronous backoff."""
    max_workers = min(max(1, n_jobs), len(pending))
    runner = ProcessCellRunner(
        _run_cell if max_workers == 1 else _run_cell_on_one_thread,
        bundle,
        max_workers=max_workers,
        cell_timeout=cell_timeout,
    )
    runner.drive(pending, on_outcome)
