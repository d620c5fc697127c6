"""Result objects returned by the OptRR optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.exceptions import OptimizationError
from repro.rr.matrix import RRMatrix


@dataclass(frozen=True)
class ParetoPoint:
    """One point on the optimized privacy/utility front.

    Attributes
    ----------
    matrix:
        The RR matrix achieving this trade-off.
    privacy:
        Privacy score (Eq. 8); larger is better.
    utility:
        Average closed-form MSE (Eq. 10); smaller is better.
    max_posterior:
        Worst-case posterior of the matrix (Eq. 9 left-hand side).
    """

    matrix: RRMatrix
    privacy: float
    utility: float
    max_posterior: float


@dataclass(frozen=True)
class OptimizationResult:
    """Full result of an OptRR run.

    Attributes
    ----------
    points:
        Non-dominated points recovered from the optimal set Ω, sorted by
        increasing privacy.
    optimal_set_points:
        All occupied Ω slots (dominated ones included) — the "detailed
        spectrum" the paper says Ω provides.
    n_generations:
        Number of generations executed.
    n_evaluations:
        Number of matrix evaluations performed.
    """

    points: tuple[ParetoPoint, ...]
    optimal_set_points: tuple[ParetoPoint, ...] = field(default=())
    n_generations: int = 0
    n_evaluations: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.points, key=lambda point: point.privacy))
        object.__setattr__(self, "points", ordered)
        object.__setattr__(self, "optimal_set_points", tuple(self.optimal_set_points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self.points)

    # -- views ------------------------------------------------------------------
    def privacy_values(self) -> np.ndarray:
        """Privacy of every front point (ascending)."""
        return np.array([point.privacy for point in self.points])

    def utility_values(self) -> np.ndarray:
        """Utility (MSE) of every front point, aligned with
        :meth:`privacy_values`."""
        return np.array([point.utility for point in self.points])

    def objectives(self) -> np.ndarray:
        """Front as an ``(n_points, 2)`` array of ``(privacy, utility)``."""
        return np.column_stack([self.privacy_values(), self.utility_values()])

    @property
    def privacy_range(self) -> tuple[float, float]:
        """Smallest and largest privacy achieved on the front."""
        if not self.points:
            raise OptimizationError("the result contains no Pareto points")
        privacies = self.privacy_values()
        return float(privacies.min()), float(privacies.max())

    # -- queries ------------------------------------------------------------------
    def best_matrix_for_privacy(self, min_privacy: float) -> ParetoPoint:
        """The lowest-MSE point with privacy at least ``min_privacy``."""
        candidates = [point for point in self.points if point.privacy >= min_privacy]
        if not candidates:
            raise OptimizationError(
                f"no optimized matrix achieves privacy >= {min_privacy}; "
                f"the front covers {self.privacy_range}"
            )
        return min(candidates, key=lambda point: point.utility)

    def best_matrix_for_utility(self, max_utility: float) -> ParetoPoint:
        """The highest-privacy point with utility (MSE) at most ``max_utility``."""
        candidates = [point for point in self.points if point.utility <= max_utility]
        if not candidates:
            raise OptimizationError(
                f"no optimized matrix achieves utility <= {max_utility}"
            )
        return max(candidates, key=lambda point: point.privacy)
