"""Pareto fronts in (privacy, utility) space.

The paper presents every experimental result as a Pareto front plotted with
privacy on the x-axis (larger is better) and utility/MSE on the y-axis
(smaller is better).  :class:`ParetoFront` is the analysis-side container for
such fronts; it can be built from an optimizer result, from a baseline scheme
sweep, or from raw (privacy, utility) pairs, and offers the queries the
evaluation section relies on (privacy range, utility at a privacy level,
dominance filtering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.result import OptimizationResult
from repro.data.distribution import CategoricalDistribution
from repro.emoo.dominance import non_dominated_indices
from repro.exceptions import ValidationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.family import SchemeFamily
from repro.rr.matrix import RRMatrix


@dataclass(frozen=True)
class FrontPoint:
    """One (privacy, utility) point, optionally carrying its matrix."""

    privacy: float
    utility: float
    matrix: RRMatrix | None = None

    def dominates(self, other: "FrontPoint") -> bool:
        """Whether this point Pareto-dominates ``other`` (higher privacy,
        lower utility)."""
        no_worse = self.privacy >= other.privacy and self.utility <= other.utility
        better = self.privacy > other.privacy or self.utility < other.utility
        return no_worse and better


@dataclass(frozen=True)
class ParetoFront:
    """An immutable Pareto front in (privacy, utility) space.

    Points are stored sorted by increasing privacy; dominated points are
    removed at construction time unless ``keep_dominated`` was requested via
    :meth:`from_points`.
    """

    name: str
    points: tuple[FrontPoint, ...] = field(default=())

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.points, key=lambda point: (point.privacy, point.utility)))
        object.__setattr__(self, "points", ordered)

    # -- constructors ------------------------------------------------------------
    @classmethod
    def from_points(
        cls,
        name: str,
        pairs: Iterable[tuple[float, float]] | Sequence[FrontPoint],
        *,
        keep_dominated: bool = False,
    ) -> "ParetoFront":
        """Build a front from (privacy, utility) pairs or FrontPoint objects."""
        points: list[FrontPoint] = []
        for item in pairs:
            if isinstance(item, FrontPoint):
                points.append(item)
            else:
                privacy, utility = item
                points.append(FrontPoint(float(privacy), float(utility)))
        if not keep_dominated:
            points = _filter_dominated(points)
        return cls(name, tuple(points))

    @classmethod
    def from_result(cls, name: str, result: OptimizationResult) -> "ParetoFront":
        """Build a front from an OptRR optimization result."""
        points = [
            FrontPoint(point.privacy, point.utility, point.matrix) for point in result.points
        ]
        return cls(name, tuple(_filter_dominated(points)))

    @classmethod
    def from_matrices(
        cls,
        name: str,
        matrices: Sequence[RRMatrix],
        evaluator: MatrixEvaluator,
        *,
        require_feasible: bool = True,
    ) -> "ParetoFront":
        """Evaluate ``matrices`` and build the front of the feasible ones.

        This is how the Warner/UP/FRAPP baseline fronts are produced: sweep
        the scheme parameter, evaluate every matrix, drop infeasible ones
        (bound violations), and keep the non-dominated rest.  The matrices
        are scored in one :meth:`~MatrixEvaluator.evaluate_batch` call,
        which scores each row independently of the others, so the points
        equal per-matrix :meth:`~MatrixEvaluator.evaluate` results.
        """
        matrices = list(matrices)
        if not matrices:
            return cls(name, ())
        evaluation = evaluator.evaluate_batch(matrices)
        keep = np.isfinite(evaluation.utility)
        if require_feasible:
            keep &= evaluation.feasible
        points = [
            FrontPoint(
                float(evaluation.privacy[row]), float(evaluation.utility[row]), matrices[row]
            )
            for row in np.flatnonzero(keep)
        ]
        return cls(name, tuple(_filter_dominated(points)))

    @classmethod
    def from_family(
        cls,
        family: SchemeFamily,
        prior: CategoricalDistribution,
        n_records: int,
        *,
        delta: float | None = None,
        n_points: int = 1001,
    ) -> "ParetoFront":
        """Baseline front of a parametric scheme family (paper methodology:
        1001-step parameter sweep, drop bound violations, keep the
        non-dominated points)."""
        evaluator = MatrixEvaluator(prior, n_records, delta)
        return cls.from_matrices(family.name, family.matrices(n_points), evaluator)

    # -- protocol ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[FrontPoint]:
        return iter(self.points)

    @property
    def is_empty(self) -> bool:
        """Whether the front has no points (e.g. no feasible matrices)."""
        return not self.points

    # -- views ------------------------------------------------------------------
    def privacy_values(self) -> np.ndarray:
        """Privacy coordinates, ascending."""
        return np.array([point.privacy for point in self.points])

    def utility_values(self) -> np.ndarray:
        """Utility coordinates aligned with :meth:`privacy_values`."""
        return np.array([point.utility for point in self.points])

    def as_array(self) -> np.ndarray:
        """Front as an ``(n_points, 2)`` array of (privacy, utility)."""
        return np.column_stack([self.privacy_values(), self.utility_values()])

    def as_minimization_array(self) -> np.ndarray:
        """Front as minimisation objectives ``(-privacy, utility)`` for the
        quality indicators."""
        return np.column_stack([-self.privacy_values(), self.utility_values()])

    @property
    def privacy_range(self) -> tuple[float, float]:
        """Smallest and largest privacy on the front."""
        if self.is_empty:
            raise ValidationError(f"front {self.name!r} is empty")
        privacies = self.privacy_values()
        return float(privacies.min()), float(privacies.max())

    # -- queries ------------------------------------------------------------------
    def utility_at_privacy(self, privacy: float) -> float:
        """Best (lowest) utility achievable at privacy >= ``privacy``.

        Returns ``inf`` when the front does not reach that privacy level.
        """
        candidates = [point.utility for point in self.points if point.privacy >= privacy - 1e-12]
        return float(min(candidates)) if candidates else float("inf")

    def interpolated_utility_at_privacy(self, privacy: float) -> float:
        """Utility of the front *curve* at a privacy level, with linear
        interpolation between adjacent front points.

        This matches the paper's visual comparison of fronts (is one curve
        below the other?) and is independent of how densely each front was
        sampled.  Privacy levels below the front's minimum return the
        lowest-privacy point's utility; levels above the maximum return
        ``inf``.
        """
        if self.is_empty:
            return float("inf")
        privacies = self.privacy_values()
        utilities = self.utility_values()
        if privacy <= privacies[0]:
            return float(utilities[0])
        if privacy > privacies[-1] + 1e-12:
            return float("inf")
        index = int(np.searchsorted(privacies, privacy, side="left"))
        index = min(index, privacies.size - 1)
        lower = index - 1
        span = privacies[index] - privacies[lower]
        if span <= 0:
            return float(min(utilities[lower], utilities[index]))
        weight = (privacy - privacies[lower]) / span
        return float(utilities[lower] + weight * (utilities[index] - utilities[lower]))

    def best_point_for_privacy(self, privacy: float) -> FrontPoint | None:
        """The point attaining :meth:`utility_at_privacy` (None if unreachable)."""
        candidates = [point for point in self.points if point.privacy >= privacy - 1e-12]
        if not candidates:
            return None
        return min(candidates, key=lambda point: point.utility)

    def restrict_privacy(self, low: float, high: float) -> "ParetoFront":
        """Sub-front whose privacy lies inside ``[low, high]``."""
        selected = tuple(point for point in self.points if low <= point.privacy <= high)
        return ParetoFront(self.name, selected)


def _filter_dominated(points: list[FrontPoint]) -> list[FrontPoint]:
    """Drop dominated points (maximise privacy, minimise utility)."""
    if not points:
        return []
    array = np.array([[-point.privacy, point.utility] for point in points])
    return [points[index] for index in non_dominated_indices(array)]
