"""Execution engine of the downstream-mining pipeline.

:func:`run_pipeline` takes a :class:`~repro.pipeline.spec.PipelineSpec` and
drives the four stages end to end for every ``(scheme, seed, miner)`` cell of
the grid:

1. **disguise** — sample the workload dataset for the seed and randomize its
   sensitive attribute with the scheme's RR matrix;
2. **reconstruct** — estimate original distributions from the disguised data
   (inside the miner, via the contingency/inversion estimators);
3. **mine** — run the miner on the disguised data and on the clean data;
4. **score** — reduce both to the miner's ``{metric: float}`` comparison.

Scheme-level privacy/utility is evaluated once per pipeline through the
batched :class:`~repro.metrics.evaluation.MatrixEvaluator` engine (the whole
scheme stack in one ``(B, n, n)`` call), and the cell grid fans out through
the shared campaign machinery (:mod:`repro.experiments.grid`): a
:class:`~concurrent.futures.ProcessPoolExecutor` when ``n_jobs > 1``, plus a
content-addressed ``pipeline_cell`` document cache.  Results are collected by
grid position and every float round-trips through canonical JSON, so the same
spec yields **byte-identical** result and aggregate documents across worker
counts and cache states.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.data.workload import SENSITIVE_ATTRIBUTE, MiningWorkload, build_workload, resolve_workload_prior
from repro.data.dataset import CategoricalDataset
from repro.exceptions import ValidationError
from repro.experiments.grid import DocumentCache, RetryPolicy, run_grid
from repro.metrics.evaluation import MatrixEvaluator
from repro.pipeline.miners import get_miner
from repro.pipeline.spec import PipelineCellTask, PipelineSpec, matrix_digest
from repro.rr.matrix import RRMatrix, stack_matrices
from repro.rr.randomize import RandomizedResponse

#: Format identifier embedded in pipeline documents.
PIPELINE_FORMAT_VERSION = 1


class PipelineCache(DocumentCache):
    """Content-addressed on-disk store of ``pipeline_cell`` documents."""

    def __init__(self, directory: str | Path) -> None:
        super().__init__(directory, document_type="pipeline_cell")


@dataclass(frozen=True)
class SchemeEvaluation:
    """Batched privacy/utility evaluation of one scheme on the workload prior."""

    scheme: str
    privacy: float
    utility: float
    max_posterior: float
    invertible: bool


@dataclass(frozen=True)
class PipelineCellRecord:
    """One executed pipeline cell: its coordinates, metrics and provenance."""

    scheme: str
    seed: int
    miner: str
    metrics: Mapping[str, float]
    from_cache: bool


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of a whole pipeline run.

    Attributes
    ----------
    spec:
        The pipeline specification that was run.
    evaluations:
        Per-scheme privacy/utility from the batched matrix evaluator, in
        scheme order.
    cells:
        Per-cell records in canonical grid order (schemes outer, seeds
        middle, miners inner) — independent of completion order.  Quarantined
        cells have no record.
    failures:
        ``(scheme, seed, miner)`` coordinates of cells quarantined after
        exhausting their attempts (non-empty only with ``keep_going``).
    failure_manifest:
        Structured retry/quarantine record
        (:meth:`repro.experiments.grid.GridReport.failure_manifest` with
        scheme/seed/miner labels), or ``None`` when nothing failed.
    """

    spec: PipelineSpec
    evaluations: tuple[SchemeEvaluation, ...]
    cells: tuple[PipelineCellRecord, ...]
    failures: tuple[tuple[str, int, str], ...] = ()
    failure_manifest: dict[str, Any] | None = None

    @property
    def complete(self) -> bool:
        """Whether every cell in the grid produced a result."""
        return not self.failures

    @property
    def n_cache_hits(self) -> int:
        """How many cells were replayed from the cache."""
        return sum(1 for cell in self.cells if cell.from_cache)

    def metrics_for(self, scheme: str, miner: str, seed: int) -> Mapping[str, float]:
        """Metrics of one cell (raises when the cell is not in the grid)."""
        for cell in self.cells:
            if cell.scheme == scheme and cell.miner == miner and cell.seed == seed:
                return cell.metrics
        raise ValidationError(
            f"cell (scheme={scheme!r}, miner={miner!r}, seed={seed}) is not part "
            f"of this pipeline"
        )

    def result_document(self) -> dict[str, Any]:
        """The full per-cell table as a JSON-compatible ``pipeline_result``
        document (byte-identical across worker counts and cache states)."""
        from repro.io import pipeline_result_to_dict

        return pipeline_result_to_dict(self)

    def aggregate_document(self) -> dict[str, Any]:
        """Cross-seed aggregation as a ``pipeline_aggregate`` document."""
        from repro.analysis.aggregate import (
            aggregate_pipeline_cells,
            pipeline_aggregate_to_document,
        )

        aggregates = aggregate_pipeline_cells(
            [(cell.scheme, cell.miner, cell.seed, cell.metrics) for cell in self.cells]
        )
        document = pipeline_aggregate_to_document(self, aggregates)
        if self.failure_manifest is not None:
            document = dict(document)
            document["failure_manifest"] = self.failure_manifest
        return document

    def aggregate_json(self) -> str:
        """Canonical JSON text of :meth:`aggregate_document`."""
        from repro.io import dump_canonical_json

        return dump_canonical_json(self.aggregate_document())


def disguise_seed(seed: int, matrix: RRMatrix) -> np.random.Generator:
    """Deterministic RNG for disguising one ``(seed, matrix)`` pair.

    The stream is derived from the seed plus a digest of the full-precision
    matrix entries, so every scheme disguises with an independent stream and
    the same cell always replays the same disguise — regardless of scheme
    order, worker count or which other cells ran before it.
    """
    entropy = int(matrix_digest(matrix)[:16], 16)
    return np.random.default_rng(np.random.SeedSequence([int(seed), entropy]))


def disguise_workload(workload: MiningWorkload, matrix: RRMatrix) -> CategoricalDataset:
    """Randomize the workload's sensitive attribute with ``matrix``."""
    mechanism = RandomizedResponse(matrix)
    return mechanism.randomize_attribute(
        workload.dataset, SENSITIVE_ATTRIBUTE, seed=disguise_seed(workload.seed, matrix)
    )


#: Per-worker memo of built+disguised workloads.  The grid fans the M miner
#: cells of one (scheme, seed) out as independent tasks, each of which used to
#: rebuild and re-disguise the identical workload; since the disguise stream
#: is a pure function of (seed, matrix digest) — see :func:`disguise_seed` —
#: the pair can be computed once per worker and shared.  Miners only read the
#: datasets, and cache keys/documents are untouched, so aggregates stay
#: byte-identical across worker counts and memo states.  Bounded FIFO so a
#: long campaign cannot grow worker memory without limit.
_DISGUISE_MEMO: dict[tuple, tuple[MiningWorkload, CategoricalDataset]] = {}
_DISGUISE_MEMO_LIMIT = 8


def _memoized_disguise(
    data: str, n_records: int, n_categories: int | None, seed: int, matrix: RRMatrix
) -> tuple[MiningWorkload, CategoricalDataset]:
    """Build and disguise the cell's workload, memoized per worker process."""
    key = (data, int(n_records), n_categories, int(seed), matrix_digest(matrix))
    memo = _DISGUISE_MEMO.get(key)
    if memo is None:
        workload = build_workload(data, n_records, seed, n_categories=n_categories)
        memo = (workload, disguise_workload(workload, matrix))
        if len(_DISGUISE_MEMO) >= _DISGUISE_MEMO_LIMIT:
            _DISGUISE_MEMO.pop(next(iter(_DISGUISE_MEMO)))
        _DISGUISE_MEMO[key] = memo
    return memo


def _execute_cell(payload: tuple) -> dict[str, Any]:
    """Process-pool entry point: run one pipeline cell, return its document.

    Must stay a module-level function (pickled by reference) and must return
    plain JSON-compatible data — shipping the canonical document rather than
    live objects keeps fresh and cached results bit-for-bit interchangeable.
    """
    (data, n_records, n_categories, scheme_name, matrix_rows, seed, miner_name,
     param_items) = payload
    matrix = RRMatrix(np.asarray(matrix_rows, dtype=np.float64))
    workload, disguised = _memoized_disguise(
        data, n_records, n_categories, seed, matrix
    )
    miner = get_miner(miner_name)
    metrics = miner.run(workload, disguised, matrix, dict(param_items))
    return {
        "format_version": PIPELINE_FORMAT_VERSION,
        "type": "pipeline_cell",
        "scheme": scheme_name,
        "seed": int(seed),
        "miner": miner_name,
        "metrics": {key: float(value) for key, value in sorted(metrics.items())},
    }


def _cell_payload(task: PipelineCellTask) -> tuple:
    return (
        task.data,
        task.n_records,
        task.n_categories,
        task.scheme.name,
        task.scheme.matrix.probabilities.tolist(),
        task.seed,
        task.miner,
        task.miner_params,
    )


def _parse_cell_document(document: dict[str, Any]) -> PipelineCellRecord:
    """Deserialize a cell document (raises on structurally invalid input, so
    corrupt cache entries count as misses)."""
    return PipelineCellRecord(
        scheme=str(document["scheme"]),
        seed=int(document["seed"]),
        miner=str(document["miner"]),
        metrics={key: float(value) for key, value in document["metrics"].items()},
        from_cache=False,
    )


def evaluate_schemes(spec: PipelineSpec) -> tuple[SchemeEvaluation, ...]:
    """Evaluate every scheme's privacy/utility in one batched call.

    The whole scheme stack goes through
    :meth:`~repro.metrics.evaluation.MatrixEvaluator.evaluate_batch` as a
    single ``(B, n, n)`` tensor — the same engine the optimizer hot path
    uses — so adding schemes to a pipeline costs one more slice of a batch,
    not one more Python-level evaluation loop.
    """
    prior = resolve_workload_prior(spec.data, spec.n_categories)
    evaluator = MatrixEvaluator(prior, spec.n_records)
    batch = evaluator.evaluate_batch(
        stack_matrices([scheme.matrix for scheme in spec.schemes])
    )
    return tuple(
        SchemeEvaluation(
            scheme=scheme.name,
            privacy=float(batch.privacy[index]),
            utility=float(batch.utility[index]),
            max_posterior=float(batch.max_posterior[index]),
            invertible=bool(batch.invertible[index]),
        )
        for index, scheme in enumerate(spec.schemes)
    )


def run_pipeline(
    spec: PipelineSpec,
    *,
    n_jobs: int = 1,
    cache_dir: str | Path | None = None,
    on_task_done: Callable[[PipelineCellTask, bool], None] | None = None,
    retries: int = 0,
    cell_timeout: float | None = None,
    keep_going: bool = False,
) -> PipelineResult:
    """Run a pipeline grid, in parallel when ``n_jobs > 1``.

    Parameters
    ----------
    spec:
        The pipeline specification (build with
        :func:`~repro.pipeline.spec.plan_pipeline`).
    n_jobs:
        Worker processes; ``1`` runs everything in this process.
    cache_dir:
        Directory of the content-addressed cell cache; ``None`` disables
        caching.
    on_task_done:
        Optional progress callback invoked as ``(task, from_cache)`` when
        each cell finishes (completion order).
    retries:
        Extra attempts granted to each failing cell beyond its first, with
        capped deterministic exponential backoff between attempts.
    cell_timeout:
        Per-attempt wall-clock limit in seconds; a cell exceeding it has its
        worker killed and replaced (forces process isolation even for
        ``n_jobs == 1``).  ``None`` disables the limit.
    keep_going:
        Quarantine cells that exhaust their attempts — recording them in
        ``failures``/``failure_manifest`` — instead of aborting the pipeline
        on its first poison cell.  Off by default: a pipeline is usually
        short enough that fail-fast is the right interactive behaviour.

    Returns
    -------
    PipelineResult
        Cell records in canonical grid order plus batched scheme
        evaluations; non-invertible schemes are rejected up front (their
        miners could not reconstruct anything).
    """
    evaluations = evaluate_schemes(spec)
    singular = [item.scheme for item in evaluations if not item.invertible]
    if singular:
        raise ValidationError(
            f"scheme(s) {singular} are not invertible; the reconstruction "
            f"estimators cannot mine through them"
        )
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries}")
    tasks = spec.tasks()
    cache = PipelineCache(cache_dir) if cache_dir is not None else None
    report = run_grid(
        payloads=[_cell_payload(task) for task in tasks],
        worker=_execute_cell,
        parse=_parse_cell_document,
        keys=[task.cache_key() for task in tasks],
        cache=cache,
        n_jobs=n_jobs,
        on_task_done=(
            None
            if on_task_done is None
            else lambda index, cached: on_task_done(tasks[index], cached)
        ),
        label="pipeline",
        policy=RetryPolicy(
            max_attempts=retries + 1,
            cell_timeout=cell_timeout,
            keep_going=keep_going,
        ),
    )
    cells = tuple(
        PipelineCellRecord(
            scheme=outcome.value.scheme,
            seed=outcome.value.seed,
            miner=outcome.value.miner,
            metrics=outcome.value.metrics,
            from_cache=outcome.from_cache,
        )
        for outcome in report.outcomes
        if outcome is not None
    )
    return PipelineResult(
        spec=spec,
        evaluations=evaluations,
        cells=cells,
        failures=tuple(
            (tasks[failure.index].scheme.name, tasks[failure.index].seed,
             tasks[failure.index].miner)
            for failure in report.failures
        ),
        failure_manifest=report.failure_manifest(
            describe=lambda index: {
                "scheme": tasks[index].scheme.name,
                "seed": tasks[index].seed,
                "miner": tasks[index].miner,
            }
        ),
    )
