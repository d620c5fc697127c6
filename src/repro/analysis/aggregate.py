"""Cross-seed aggregation of experiment results.

The paper's claims (Figures 4-5, Theorem 2) are statements about
*distributions over seeds*: OptRR fronts dominate the classic scheme
families on average, not merely for one lucky random stream.  This module
turns a collection of per-seed :class:`~repro.experiments.base.ExperimentResult`
objects into per-experiment summary statistics — mean/std/min/max of every
shared front indicator (hypervolume, privacy ranges, utility ratios, ...)
plus the reproduction verdict rate.

The aggregation is deterministic: runs are consumed in the caller-supplied
order, statistics are computed with plain ``float64`` reductions, and the
JSON rendering (:func:`aggregate_to_document` +
:func:`repro.utils.arrays.dump_canonical_json`) sorts every key — so the same runs
always produce byte-identical aggregate documents, no matter how (serially,
in parallel, from cache) the results were obtained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - avoids an analysis <-> experiments cycle
    from repro.experiments.base import ExperimentResult
    from repro.pipeline.runner import PipelineResult

#: Format identifier embedded in aggregate documents.
AGGREGATE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class MetricAggregate:
    """Summary statistics of one metric across seeds."""

    mean: float
    std: float
    min: float
    max: float

    def as_dict(self) -> dict[str, float]:
        """JSON-compatible view."""
        return {"mean": self.mean, "std": self.std, "min": self.min, "max": self.max}


@dataclass(frozen=True)
class ExperimentAggregate:
    """Cross-seed summary of one experiment.

    Attributes
    ----------
    experiment_id:
        The aggregated experiment.
    seeds:
        Seeds contributing to the aggregate, in run order.
    reproduction_rate:
        Fraction of seeds whose run reproduced the paper's claim.
    metrics:
        Per-metric :class:`MetricAggregate` for every metric key shared by
        all runs of the experiment.
    """

    experiment_id: str
    seeds: tuple[int, ...]
    reproduction_rate: float
    metrics: Mapping[str, MetricAggregate]

    @property
    def n_runs(self) -> int:
        """Number of aggregated runs."""
        return len(self.seeds)


def aggregate_experiment_runs(
    experiment_id: str,
    seed_results: Sequence[tuple[int, ExperimentResult]],
) -> ExperimentAggregate:
    """Aggregate per-seed results of one experiment.

    Only metric keys present in *every* run are aggregated (a metric missing
    from some seed would make the statistics incomparable); the reproduction
    rate always covers all runs.
    """
    if not seed_results:
        raise ValidationError(f"no runs to aggregate for experiment {experiment_id!r}")
    for _, result in seed_results:
        if result.experiment_id != experiment_id:
            raise ValidationError(
                f"result for {result.experiment_id!r} cannot be aggregated "
                f"under {experiment_id!r}"
            )
    shared_keys: set[str] | None = None
    for _, result in seed_results:
        keys = set(result.metrics)
        shared_keys = keys if shared_keys is None else shared_keys & keys
    metrics: dict[str, MetricAggregate] = {}
    for key in sorted(shared_keys or ()):
        values = np.array(
            [float(result.metrics[key]) for _, result in seed_results], dtype=np.float64
        )
        metrics[key] = MetricAggregate(
            mean=float(values.mean()),
            std=float(values.std()),
            min=float(values.min()),
            max=float(values.max()),
        )
    reproduced = [bool(result.reproduced) for _, result in seed_results]
    return ExperimentAggregate(
        experiment_id=experiment_id,
        seeds=tuple(int(seed) for seed, _ in seed_results),
        reproduction_rate=float(sum(reproduced)) / float(len(reproduced)),
        metrics=metrics,
    )


def aggregate_campaign_runs(
    runs: Sequence[tuple[str, int, ExperimentResult]],
) -> dict[str, ExperimentAggregate]:
    """Aggregate a whole campaign's ``(experiment_id, seed, result)`` runs.

    Experiments appear in the returned mapping in first-occurrence order of
    the input sequence (the campaign grid order), each aggregated over its
    seeds in input order.
    """
    grouped: dict[str, list[tuple[int, ExperimentResult]]] = {}
    for experiment_id, seed, result in runs:
        grouped.setdefault(experiment_id, []).append((seed, result))
    return {
        experiment_id: aggregate_experiment_runs(experiment_id, seed_results)
        for experiment_id, seed_results in grouped.items()
    }


def aggregate_to_document(
    aggregates: Mapping[str, ExperimentAggregate],
) -> dict[str, Any]:
    """Render aggregates as a JSON-compatible ``campaign_aggregate`` document."""
    return {
        "format_version": AGGREGATE_FORMAT_VERSION,
        "type": "campaign_aggregate",
        "experiments": {
            experiment_id: {
                "seeds": list(aggregate.seeds),
                "n_runs": aggregate.n_runs,
                "reproduction_rate": aggregate.reproduction_rate,
                "metrics": {
                    key: metric.as_dict() for key, metric in aggregate.metrics.items()
                },
            }
            for experiment_id, aggregate in aggregates.items()
        },
    }


def _aggregate_metric_values(values: Sequence[float]) -> MetricAggregate:
    array = np.asarray(values, dtype=np.float64)
    return MetricAggregate(
        mean=float(array.mean()),
        std=float(array.std()),
        min=float(array.min()),
        max=float(array.max()),
    )


def aggregate_pipeline_cells(
    cells: Sequence[tuple[str, str, int, Mapping[str, float]]],
) -> dict[str, dict[str, dict[str, MetricAggregate]]]:
    """Aggregate pipeline cells across seeds.

    ``cells`` are ``(scheme, miner, seed, metrics)`` tuples; the result is a
    ``{scheme: {miner: {metric: MetricAggregate}}}`` mapping in
    first-occurrence order.  Only metric keys present in *every* seed of a
    ``(scheme, miner)`` pair are aggregated (mirroring
    :func:`aggregate_experiment_runs`); like the campaign aggregation, the
    reduction is order-deterministic: cells are consumed in the
    caller-supplied (grid) order.
    """
    grouped: dict[tuple[str, str], list[Mapping[str, float]]] = {}
    order: list[tuple[str, str]] = []
    for scheme, miner, _seed, metrics in cells:
        key = (scheme, miner)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(metrics)
    aggregates: dict[str, dict[str, dict[str, MetricAggregate]]] = {}
    for scheme, miner in order:
        runs = grouped[(scheme, miner)]
        shared: set[str] | None = None
        for metrics in runs:
            keys = set(metrics)
            shared = keys if shared is None else shared & keys
        per_metric = {
            metric: _aggregate_metric_values([float(run[metric]) for run in runs])
            for metric in sorted(shared or ())
        }
        aggregates.setdefault(scheme, {})[miner] = per_metric
    return aggregates


def pipeline_aggregate_to_document(
    result: "PipelineResult",
    aggregates: Mapping[str, Mapping[str, Mapping[str, MetricAggregate]]],
) -> dict[str, Any]:
    """Render a pipeline's cross-seed aggregates as a JSON-compatible
    ``pipeline_aggregate`` document.

    The per-scheme rows carry the batched privacy/utility evaluation next to
    the per-miner metric statistics — the per-scheme × per-miner table the
    paper's end-to-end claim is about.
    """
    spec = result.spec
    evaluation_by_scheme = {item.scheme: item for item in result.evaluations}
    return {
        "format_version": AGGREGATE_FORMAT_VERSION,
        "type": "pipeline_aggregate",
        "data": spec.data,
        "n_records": spec.n_records,
        "n_categories": spec.n_categories,
        "seeds": list(spec.seeds),
        "miners": list(spec.miners),
        "schemes": [
            {
                "scheme": scheme.name,
                "privacy": evaluation_by_scheme[scheme.name].privacy,
                "utility": evaluation_by_scheme[scheme.name].utility,
                "max_posterior": evaluation_by_scheme[scheme.name].max_posterior,
                "miners": {
                    miner: {
                        metric: statistic.as_dict()
                        for metric, statistic in aggregates[scheme.name][miner].items()
                    }
                    for miner in spec.miners
                },
            }
            for scheme in spec.schemes
        ],
    }


def format_aggregate_table(aggregates: Mapping[str, ExperimentAggregate]) -> str:
    """Human-readable per-experiment summary table for the CLI."""
    lines = [
        f"{'experiment':<10s} {'runs':>4s} {'reproduced':>10s} "
        f"{'hypervolume (mean+/-std)':>26s}"
    ]
    for experiment_id, aggregate in aggregates.items():
        hypervolume = aggregate.metrics.get("optrr_hypervolume")
        if hypervolume is not None:
            hypervolume_text = f"{hypervolume.mean:.6g} +/- {hypervolume.std:.2g}"
        else:
            hypervolume_text = "-"
        lines.append(
            f"{experiment_id:<10s} {aggregate.n_runs:>4d} "
            f"{aggregate.reproduction_rate:>10.0%} {hypervolume_text:>26s}"
        )
    return "\n".join(lines)
