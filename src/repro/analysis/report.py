"""Text reports for experiments: front tables and comparison summaries."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.compare import FrontComparison
from repro.core.result import ParetoFront


def format_front_table(front: ParetoFront, *, max_rows: int = 20) -> str:
    """Format a front as a fixed-width table of (privacy, utility) rows.

    Long fronts are subsampled evenly so the table stays readable.
    """
    header = f"Pareto front: {front.name} ({len(front)} points)"
    if front.is_empty:
        return header + "\n  (empty)"
    rows = range(len(front))
    if len(front) > max_rows:
        step = len(front) / max_rows
        rows = [int(index * step) for index in range(max_rows)]
    lines = [header, f"  {'privacy':>10}  {'utility (MSE)':>14}"]
    for row in rows:
        lines.append(f"  {front.privacy[row]:>10.4f}  {front.utility[row]:>14.6e}")
    return "\n".join(lines)


def format_comparison_table(comparisons: Sequence[FrontComparison]) -> str:
    """Format one or more front comparisons as a summary table."""
    if not comparisons:
        return "(no comparisons)"
    lines = [
        f"  {'candidate':>12} {'baseline':>12} {'priv. range (cand.)':>22} "
        f"{'priv. range (base)':>20} {'extra range':>12} {'util. ratio':>12} "
        f"{'wins':>5} {'losses':>7}"
    ]
    for comparison in comparisons:
        cand_range = f"[{comparison.candidate_privacy_range[0]:.3f}, {comparison.candidate_privacy_range[1]:.3f}]"
        base_range = f"[{comparison.baseline_privacy_range[0]:.3f}, {comparison.baseline_privacy_range[1]:.3f}]"
        lines.append(
            f"  {comparison.candidate_name:>12} {comparison.baseline_name:>12} "
            f"{cand_range:>22} {base_range:>20} "
            f"{comparison.extra_privacy_range:>12.4f} "
            f"{comparison.mean_utility_ratio:>12.3f} "
            f"{comparison.candidate_wins:>5d} {comparison.baseline_wins:>7d}"
        )
    return "\n".join(lines)


#: Metric each miner's column leads with in the pipeline summary table (the
#: remaining metrics stay available in the aggregate document).
PIPELINE_HEADLINE_METRICS = ("accuracy", "f1", "l1_error")


def format_pipeline_table(aggregate_document: dict) -> str:
    """Format a ``pipeline_aggregate`` document as a per-scheme summary table.

    One row per scheme (privacy from the batched evaluation), one column per
    miner showing its headline metric as ``mean +/- std``.  The headline is
    the first of :data:`PIPELINE_HEADLINE_METRICS` the miner reports,
    falling back to its alphabetically-first metric.
    """
    miners = list(aggregate_document.get("miners", []))
    rows = aggregate_document.get("schemes", [])
    if not rows:
        return "(empty pipeline)"
    headlines: dict[str, str] = {}
    for miner in miners:
        metrics = set()
        for row in rows:
            metrics |= set(row["miners"].get(miner, {}))
        headlines[miner] = next(
            (name for name in PIPELINE_HEADLINE_METRICS if name in metrics),
            min(metrics) if metrics else "-",
        )
    name_width = max(len("scheme"), *(len(row["scheme"]) for row in rows))
    header = f"  {'scheme':<{name_width}} {'privacy':>9}"
    for miner in miners:
        header += f"  {f'{miner}:{headlines[miner]}':>24}"
    lines = [header]
    for row in rows:
        line = f"  {row['scheme']:<{name_width}} {row['privacy']:>9.4f}"
        for miner in miners:
            statistic = row["miners"].get(miner, {}).get(headlines[miner])
            if statistic is None:
                cell = "-"
            else:
                cell = f"{statistic['mean']:.4f} +/- {statistic['std']:.3f}"
            line += f"  {cell:>24}"
        lines.append(line)
    return "\n".join(lines)


def format_paper_vs_measured(
    experiment_id: str,
    paper_claim: str,
    measured: str,
    holds: bool,
) -> str:
    """One-line paper-vs-measured record used by the benchmark harness."""
    status = "REPRODUCED" if holds else "DIVERGED"
    return f"[{status}] {experiment_id}: paper: {paper_claim} | measured: {measured}"
