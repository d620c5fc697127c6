"""Comparison of two Pareto fronts (the paper's evaluation methodology).

The evaluation argues that "scheme A is better than scheme B in a privacy
range" when A's front lies below B's front (lower MSE) throughout that range,
and that A "covers a wider privacy range" when A reaches privacy values B
cannot.  :func:`compare_fronts` turns both statements into numbers that the
benchmark harness prints and the tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.result import ParetoFront
from repro.emoo.indicators import coverage, epsilon_indicator, hypervolume_2d
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class FrontComparison:
    """Summary of how a candidate front compares against a baseline front.

    Attributes
    ----------
    candidate_name, baseline_name:
        Names of the compared fronts.
    candidate_privacy_range, baseline_privacy_range:
        (min, max) privacy covered by each front.
    extra_privacy_range:
        How much further (towards low privacy) the candidate front reaches
        beyond the baseline: ``baseline_min_privacy - candidate_min_privacy``
        (positive means the candidate covers more of the range, matching the
        paper's "wider privacy range" claim).
    mean_utility_ratio:
        Average over the shared privacy range of
        ``baseline_utility / candidate_utility`` at equal privacy; values
        above 1 mean the candidate needs less MSE for the same privacy.
    candidate_wins, baseline_wins, ties:
        Counts of probe privacy levels where each front achieves strictly
        lower utility.
    hypervolume_candidate, hypervolume_baseline:
        2-D hypervolume of each front (minimisation form) against a shared
        reference point; larger is better.
    coverage_candidate_over_baseline:
        C-metric: fraction of baseline points weakly dominated by the
        candidate front.
    additive_epsilon:
        Additive epsilon indicator of the candidate against the baseline
        (lower/negative is better for the candidate).
    """

    candidate_name: str
    baseline_name: str
    candidate_privacy_range: tuple[float, float]
    baseline_privacy_range: tuple[float, float]
    extra_privacy_range: float
    mean_utility_ratio: float
    candidate_wins: int
    baseline_wins: int
    ties: int
    hypervolume_candidate: float
    hypervolume_baseline: float
    coverage_candidate_over_baseline: float
    additive_epsilon: float

    @property
    def candidate_dominates_shared_range(self) -> bool:
        """Whether the candidate front never loses at any probed privacy level."""
        return self.baseline_wins == 0

    @property
    def covers_wider_privacy_range(self) -> bool:
        """Whether the candidate extends to lower privacy than the baseline."""
        return self.extra_privacy_range > 1e-9


def compare_fronts(
    candidate: ParetoFront,
    baseline: ParetoFront,
    *,
    n_probes: int = 50,
    utility_tolerance: float = 1e-12,
    relative_tolerance: float = 0.01,
) -> FrontComparison:
    """Compare a candidate front against a baseline front.

    Probes ``n_probes`` privacy levels spanning the privacy range shared by
    both fronts and compares the two front *curves* (linear interpolation
    between front points, as in the paper's visual comparison) at each level,
    then computes the global front-quality indicators.

    A probe counts as a win only when the advantage exceeds both the absolute
    ``utility_tolerance`` and ``relative_tolerance`` (fraction of the other
    front's utility); differences smaller than that — typically sampling
    resolution of the sweeps — count as ties.
    """
    if candidate.is_empty or baseline.is_empty:
        raise ValidationError("both fronts must contain at least one point")
    if n_probes < 2:
        raise ValidationError("n_probes must be at least 2")

    candidate_range = candidate.privacy_range
    baseline_range = baseline.privacy_range
    shared_low = max(candidate_range[0], baseline_range[0])
    shared_high = min(candidate_range[1], baseline_range[1])

    candidate_wins = baseline_wins = ties = 0
    ratios: list[float] = []
    if shared_high > shared_low:
        probes = np.linspace(shared_low, shared_high, n_probes)
        for privacy in probes:
            candidate_utility = candidate.interpolated_utility_at_privacy(float(privacy))
            baseline_utility = baseline.interpolated_utility_at_privacy(float(privacy))
            if not (np.isfinite(candidate_utility) and np.isfinite(baseline_utility)):
                continue
            margin = max(
                utility_tolerance,
                relative_tolerance * min(candidate_utility, baseline_utility),
            )
            if candidate_utility < baseline_utility - margin:
                candidate_wins += 1
            elif baseline_utility < candidate_utility - margin:
                baseline_wins += 1
            else:
                ties += 1
            if candidate_utility > 0:
                ratios.append(baseline_utility / candidate_utility)

    candidate_array = candidate.as_minimization_array()
    baseline_array = baseline.as_minimization_array()
    all_points = np.vstack([candidate_array, baseline_array])
    reference = (float(all_points[:, 0].max()) + 1e-6, float(all_points[:, 1].max()) * 1.1 + 1e-12)

    return FrontComparison(
        candidate_name=candidate.name,
        baseline_name=baseline.name,
        candidate_privacy_range=candidate_range,
        baseline_privacy_range=baseline_range,
        extra_privacy_range=float(baseline_range[0] - candidate_range[0]),
        mean_utility_ratio=float(np.mean(ratios)) if ratios else float("nan"),
        candidate_wins=candidate_wins,
        baseline_wins=baseline_wins,
        ties=ties,
        hypervolume_candidate=hypervolume_2d(candidate_array, reference),
        hypervolume_baseline=hypervolume_2d(baseline_array, reference),
        coverage_candidate_over_baseline=coverage(candidate_array, baseline_array),
        additive_epsilon=epsilon_indicator(candidate_array, baseline_array),
    )
