"""Pareto-front analysis, comparison, aggregation, plotting and reporting."""

from repro.analysis.front import FrontRow, ParetoFront
from repro.analysis.compare import FrontComparison, compare_fronts
from repro.analysis.plot import ascii_scatter
from repro.analysis.report import format_front_table, format_comparison_table
from repro.analysis.aggregate import (
    ExperimentAggregate,
    MetricAggregate,
    aggregate_campaign_runs,
    aggregate_experiment_runs,
    aggregate_to_document,
    format_aggregate_table,
)

__all__ = [
    "ExperimentAggregate",
    "FrontComparison",
    "FrontRow",
    "MetricAggregate",
    "ParetoFront",
    "aggregate_campaign_runs",
    "aggregate_experiment_runs",
    "aggregate_to_document",
    "ascii_scatter",
    "compare_fronts",
    "format_aggregate_table",
    "format_front_table",
    "format_comparison_table",
]
