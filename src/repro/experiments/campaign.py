"""Parallel multi-seed experiment campaigns.

The paper's claims are statements about *distributions over seeds*; a single
``(experiment, seed)`` run proves nothing about them.  This module runs a
whole grid of ``experiments x seeds`` — optionally across a
:class:`~concurrent.futures.ProcessPoolExecutor` — and aggregates the
per-seed results into the cross-seed statistics the claims are actually
about (:mod:`repro.analysis.aggregate`).

Design invariants
-----------------
* **Determinism.** A campaign is fully described by its
  :class:`CampaignSpec`.  Results are collected by grid position (never by
  completion order), workers ship results as the canonical
  ``experiment_result`` JSON document (:mod:`repro.io`), and aggregation is
  pure — so the same spec yields byte-identical aggregate documents whether
  it ran serially, on eight workers, or entirely from cache.
* **Content-addressed caching.**  Every task is keyed by the SHA-256 of
  ``(package version, experiment id, effective overrides, seed)``.  A cache
  hit replays the stored document; a miss runs the experiment and stores it.
  Changing any input — including upgrading the library — changes the key, so
  stale results can never be replayed.
* **Per-experiment overrides.**  One global override set is applied to a
  heterogeneous grid by restricting it to each spec's ``accepted_overrides``
  (:meth:`~repro.experiments.base.ExperimentSpec.filter_overrides`); the
  cache key uses the restricted set, so ``thm2`` cached with and without an
  irrelevant ``n_generations=50`` is the same entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import repro
from repro.analysis.aggregate import (
    ExperimentAggregate,
    aggregate_campaign_runs,
    aggregate_to_document,
)
from repro.emoo.driver import DEFAULT_CHECKPOINT_EVERY
from repro.exceptions import ExperimentError, ReproError
from repro.experiments.base import ExperimentResult, environment_override_defaults
from repro.experiments.grid import DocumentCache, RetryPolicy, run_grid
from repro.experiments.registry import find_experiments, get_experiment
from repro.io import (
    dump_canonical_json,
    experiment_result_from_dict,
    experiment_result_to_dict,
)
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Default extra attempts per failing campaign cell (long campaigns hit
#: transient faults; one cheap retry absorbs most of them).
DEFAULT_CAMPAIGN_RETRIES = 1

#: Cache-key prefix; bump when the key derivation itself changes.
#: v3: the array-backend name left the key again (there is one kernel set).
CACHE_KEY_SCHEMA = "experiment-task-v3"


@dataclass(frozen=True)
class CampaignTask:
    """One cell of the campaign grid: an experiment, a seed, the effective
    (spec-filtered) overrides — stored as sorted items so the task is hashable
    and its cache key is canonical."""

    experiment_id: str
    seed: int
    overrides: tuple[tuple[str, Any], ...] = ()

    def cache_key(self) -> str:
        """Content-addressed key of this task (includes the package version)."""
        payload = json.dumps(
            {
                "schema": CACHE_KEY_SCHEMA,
                "version": repro.__version__,
                "experiment_id": self.experiment_id,
                "seed": self.seed,
                "overrides": list(self.overrides),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """Static description of a campaign: which experiments, which seeds,
    which overrides.

    Build one with :func:`plan_campaign` (which resolves globs and filters
    overrides) rather than by hand.
    """

    experiments: tuple[str, ...]
    seeds: tuple[int, ...]
    overrides: tuple[tuple[str, Any], ...] = ()

    def tasks(self) -> tuple[CampaignTask, ...]:
        """The grid in canonical order: experiments outer, seeds inner."""
        global_overrides = dict(self.overrides)
        tasks = []
        for experiment_id in self.experiments:
            spec = get_experiment(experiment_id)
            effective = spec.filter_overrides(global_overrides)
            items = tuple(sorted(effective.items()))
            for seed in self.seeds:
                tasks.append(CampaignTask(experiment_id, int(seed), items))
        return tuple(tasks)


def plan_campaign(
    patterns: Sequence[str],
    seeds: Sequence[int],
    overrides: Mapping[str, Any] | None = None,
) -> CampaignSpec:
    """Resolve experiment globs and build the campaign specification.

    Budget overrides some experiment accepts but the caller left unset are
    materialized here from the environment-aware defaults
    (``REPRO_GENERATIONS``/``REPRO_POPULATION``): the returned spec fully
    describes the campaign — re-running the same spec object is unaffected
    by later environment changes — and every cache key records the budget a
    task actually ran under, so an environment change can never replay
    results computed under another budget.
    """
    experiments = find_experiments(patterns)
    if not seeds:
        raise ExperimentError("a campaign needs at least one seed")
    merged = dict(overrides or {})
    unknown = [
        key
        for key in sorted(merged)
        if not any(
            key in get_experiment(experiment_id).accepted_overrides
            for experiment_id in experiments
        )
    ]
    if unknown:
        raise ExperimentError(
            f"override(s) {', '.join(map(repr, unknown))} are not accepted by any "
            f"experiment in the campaign {list(experiments)}"
        )
    accepted_anywhere = {
        key
        for experiment_id in experiments
        for key in get_experiment(experiment_id).accepted_overrides
    }
    for key, value in environment_override_defaults().items():
        if key in accepted_anywhere:
            merged.setdefault(key, value)
    return CampaignSpec(
        experiments=experiments,
        seeds=tuple(int(seed) for seed in seeds),
        overrides=tuple(sorted(merged.items())),
    )


class CampaignCache(DocumentCache):
    """Content-addressed on-disk store of ``experiment_result`` documents.

    A :class:`~repro.experiments.grid.DocumentCache` keyed by
    :meth:`CampaignTask.cache_key`, with task-level convenience wrappers.
    """

    def __init__(self, directory: str | Path) -> None:
        super().__init__(directory, document_type="experiment_result")

    def path_for(self, task: CampaignTask) -> Path:
        """Where ``task``'s result document lives (whether or not it exists)."""
        return self.path_for_key(task.cache_key())

    def load_result(self, task: CampaignTask) -> ExperimentResult | None:
        """Return the cached result for ``task``, or None on a miss.

        Unreadable, mistyped or structurally invalid entries count as misses
        (the task simply re-runs and overwrites them) — a result is only
        returned if the entry deserializes into a full experiment result.
        """
        document = self.load_document(task.cache_key())
        if document is None:
            return None
        return _parse_experiment_document(document)

    def store(self, task: CampaignTask, document: dict[str, Any]) -> Path:
        """Atomically write ``task``'s result document and return its path."""
        return self.store_document(task.cache_key(), document)


def _parse_experiment_document(document: dict[str, Any]) -> ExperimentResult | None:
    try:
        return experiment_result_from_dict(document)
    except (ReproError, KeyError, TypeError, ValueError):
        return None


@dataclass(frozen=True)
class CampaignRunRecord:
    """One executed grid cell: the task, its result and where it came from."""

    task: CampaignTask
    result: ExperimentResult
    from_cache: bool


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a whole campaign.

    Attributes
    ----------
    spec:
        The campaign specification that was run.
    records:
        Per-task records in canonical grid order (experiments outer, seeds
        inner) — independent of completion order.  Quarantined tasks have no
        record.
    aggregates:
        Cross-seed :class:`ExperimentAggregate` per experiment, in grid
        order, over the completed records.
    failures:
        Tasks quarantined after exhausting their attempts (empty on a clean
        run; non-empty only with ``keep_going``).
    failure_manifest:
        Structured retry/quarantine record
        (:meth:`repro.experiments.grid.GridReport.failure_manifest` with
        experiment/seed labels), or ``None`` when nothing failed.
    """

    spec: CampaignSpec
    records: tuple[CampaignRunRecord, ...]
    aggregates: Mapping[str, ExperimentAggregate]
    failures: tuple[CampaignTask, ...] = ()
    failure_manifest: dict[str, Any] | None = None

    @property
    def complete(self) -> bool:
        """Whether every task in the grid produced a result."""
        return not self.failures

    @property
    def n_cache_hits(self) -> int:
        """How many tasks were replayed from the cache."""
        return sum(1 for record in self.records if record.from_cache)

    def aggregate_document(self) -> dict[str, Any]:
        """The aggregates as a JSON-compatible ``campaign_aggregate``
        document (byte-identical across worker counts and cache states).

        The ``failure_manifest`` section appears only when something failed,
        so a fault-free campaign's document is byte-identical to one
        produced without the resilience layer at all.
        """
        document = aggregate_to_document(self.aggregates)
        if self.failure_manifest is not None:
            document = dict(document)
            document["failure_manifest"] = self.failure_manifest
        return document

    def aggregate_json(self) -> str:
        """Canonical JSON text of :meth:`aggregate_document`."""
        return dump_canonical_json(self.aggregate_document())


def _execute_task(
    payload: tuple[str, int, tuple[tuple[str, Any], ...]]
) -> dict[str, Any]:
    """Process-pool entry point: run one task, return its result document.

    Must stay a module-level function (pickled by reference) and must return
    plain JSON-compatible data — shipping the canonical document rather than
    live objects keeps fresh and cached results bit-for-bit interchangeable.
    """
    import repro.experiments  # noqa: F401  (registry side effects in spawn workers)
    from repro.experiments.runner import run_experiment

    experiment_id, seed, override_items = payload
    result = run_experiment(experiment_id, seed=seed, **dict(override_items))
    return experiment_result_to_dict(result)


def run_campaign(
    patterns_or_spec: Sequence[str] | CampaignSpec,
    *,
    seeds: Sequence[int] | None = None,
    overrides: Mapping[str, Any] | None = None,
    n_jobs: int = 1,
    cache_dir: str | Path | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    on_task_done: Callable[[CampaignTask, bool], None] | None = None,
    retries: int = DEFAULT_CAMPAIGN_RETRIES,
    cell_timeout: float | None = None,
    keep_going: bool = True,
) -> CampaignResult:
    """Run a campaign grid, in parallel when ``n_jobs > 1``.

    Parameters
    ----------
    patterns_or_spec:
        Either experiment id patterns (globs allowed) — in which case
        ``seeds`` is required — or a ready :class:`CampaignSpec`.
    seeds:
        Seeds to run each experiment under.  Must be None when a spec is
        given (a spec already carries its seeds); combining them raises
        :class:`ExperimentError`.
    overrides:
        Global overrides, restricted per experiment to its accepted keys.
        Like ``seeds``, must be None when a spec is given.
    n_jobs:
        Worker processes; ``1`` runs everything in this process.
    cache_dir:
        Directory of the content-addressed result cache; ``None`` disables
        caching.  When caching is on, a ``partial/`` subdirectory holds
        per-cell optimizer checkpoints: a campaign killed mid-cell resumes
        that cell from its last checkpoint on the next run (producing the
        byte-identical result document the uninterrupted cell would have),
        and a cell's partials are deleted once its result is cached.
    checkpoint_every:
        Checkpoint cadence (generations) for the per-cell partial
        checkpoints.
    on_task_done:
        Optional progress callback invoked as ``(task, from_cache)`` when
        each task finishes (completion order).
    retries:
        Extra attempts granted to each failing cell beyond its first, with
        capped deterministic exponential backoff between attempts.
    cell_timeout:
        Per-attempt wall-clock limit in seconds; a cell exceeding it has its
        worker killed and replaced (forces process isolation even for
        ``n_jobs == 1``).  ``None`` disables the limit.
    keep_going:
        Quarantine cells that exhaust their attempts — recording them in
        ``failures``/``failure_manifest`` and aggregating over the rest —
        instead of aborting the campaign on its first poison cell.  On by
        default: a 500-cell overnight campaign should not discard 499
        results because one seed hit a bug.

    Returns
    -------
    CampaignResult
        Records in canonical grid order plus cross-seed aggregates; check
        ``complete``/``failures`` when ``keep_going`` is on.
    """
    if isinstance(patterns_or_spec, CampaignSpec):
        if seeds is not None or overrides is not None:
            raise ExperimentError(
                "seeds and overrides are part of the CampaignSpec; pass them to "
                "plan_campaign instead of run_campaign"
            )
        spec = patterns_or_spec
    else:
        if seeds is None:
            raise ExperimentError("seeds are required when patterns are given")
        spec = plan_campaign(patterns_or_spec, seeds, overrides)
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    tasks = spec.tasks()
    cache = CampaignCache(cache_dir) if cache_dir is not None else None
    report = run_grid(
        payloads=[_payload(task) for task in tasks],
        worker=_execute_task,
        parse=experiment_result_from_dict,
        keys=[task.cache_key() for task in tasks],
        cache=cache,
        checkpoint_dir=(cache.directory / "partial") if cache is not None else None,
        checkpoint_every=checkpoint_every,
        n_jobs=n_jobs,
        on_task_done=(
            None
            if on_task_done is None
            else lambda index, cached: on_task_done(tasks[index], cached)
        ),
        label="campaign",
        policy=RetryPolicy(
            max_attempts=retries + 1,
            cell_timeout=cell_timeout,
            keep_going=keep_going,
        ),
    )
    records = tuple(
        CampaignRunRecord(task=task, result=outcome.value, from_cache=outcome.from_cache)
        for task, outcome in zip(tasks, report.outcomes)
        if outcome is not None
    )
    aggregates = aggregate_campaign_runs(
        [(record.task.experiment_id, record.task.seed, record.result) for record in records]
    )
    return CampaignResult(
        spec=spec,
        records=records,
        aggregates=aggregates,
        failures=tuple(tasks[failure.index] for failure in report.failures),
        failure_manifest=report.failure_manifest(
            describe=lambda index: {
                "experiment_id": tasks[index].experiment_id,
                "seed": tasks[index].seed,
            }
        ),
    )


def _payload(task: CampaignTask) -> tuple[str, int, tuple[tuple[str, Any], ...]]:
    return (task.experiment_id, task.seed, task.overrides)
