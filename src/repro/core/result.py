"""Pareto fronts in (privacy, utility) space and the OptRR result.

The paper presents every experimental result as a Pareto front plotted with
privacy on the x-axis (larger is better) and utility/MSE on the y-axis
(smaller is better).  :class:`ParetoFront` holds such a front as columns:
``privacy``, ``utility``, an optional ``max_posterior`` and an optional
``(k, n, n)`` matrix stack.  The same type carries an optimizer result's
front and Ω spectrum (:class:`OptimizationResult`), a baseline scheme sweep
(:meth:`ParetoFront.from_family`) and raw (privacy, utility) pairs
(:meth:`ParetoFront.from_points`); a :class:`FrontRow` is built only when
one row is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.data.distribution import CategoricalDistribution
from repro.emoo.dominance import non_dominated_indices
from repro.exceptions import OptimizationError, ValidationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.family import SchemeFamily
from repro.rr.matrix import RRMatrix


@dataclass(frozen=True)
class FrontRow:
    """One row of a :class:`ParetoFront`: privacy (Eq. 8, larger is better),
    utility (Eq. 10 MSE, smaller is better) and, when the front carries
    them, the worst-case posterior (Eq. 9) and the RR matrix."""

    privacy: float
    utility: float
    max_posterior: float | None = None
    matrix: RRMatrix | None = None


@dataclass(frozen=True, eq=False)
class ParetoFront:
    """A front in (privacy, utility) space, held as aligned columns.

    Row ``i``'s matrix is ``stack[stack_rows[i]]`` (``stack_rows`` defaults
    to every stack row in order), so fronts taken from one another with
    :meth:`take` share one matrix stack instead of copying it.  The
    constructor keeps rows as given; :meth:`from_points` and
    :meth:`from_matrices` drop dominated rows and sort by
    ``(privacy, utility)``, stably.
    """

    name: str
    privacy: np.ndarray
    utility: np.ndarray
    max_posterior: np.ndarray | None = None
    stack: np.ndarray | None = None
    stack_rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.stack is not None and self.stack_rows is None:
            object.__setattr__(self, "stack_rows", np.arange(len(self.stack)))
        for key in ("privacy", "utility", "max_posterior", "stack", "stack_rows"):
            if getattr(self, key) is not None:
                # Read-only (a view of a writable array, so the caller's
                # array keeps its flags): nothing writes through a front.
                dtype = np.float64 if key != "stack_rows" else None
                column = np.asarray(getattr(self, key), dtype=dtype)
                if column.flags.writeable:
                    column = column.view()
                    column.flags.writeable = False
                object.__setattr__(self, key, column)
        columns = (self.privacy, self.utility, self.max_posterior, self.stack_rows)
        if self.privacy.ndim != 1 or len({len(c) for c in columns if c is not None}) > 1:
            raise ValidationError(f"front {self.name!r} needs aligned one-dimensional columns")

    # -- constructors ------------------------------------------------------------
    @classmethod
    def from_points(
        cls,
        name: str,
        pairs: Iterable[tuple[float, float]],
        *,
        keep_dominated: bool = False,
    ) -> "ParetoFront":
        """Build a front from (privacy, utility) pairs."""
        columns = np.array([(float(p), float(u)) for p, u in pairs]).reshape(-1, 2)
        rows = _front_rows(columns[:, 0], columns[:, 1], keep_dominated)
        return cls(name, columns[rows, 0], columns[rows, 1])

    @classmethod
    def from_matrices(
        cls,
        name: str,
        stack: np.ndarray,
        evaluator: MatrixEvaluator,
    ) -> "ParetoFront":
        """Evaluate a ``(B, n, n)`` stack and build the front of its feasible
        matrices.

        This is how the Warner/UP/FRAPP baseline fronts are produced: sweep
        the scheme parameter, evaluate every matrix, drop infeasible ones
        (bound violations), and keep the non-dominated rest.  The stack is
        scored in one :meth:`~MatrixEvaluator.evaluate_batch` call, which
        scores each row independently of the others, so the points equal
        per-matrix :meth:`~MatrixEvaluator.evaluate` results.  The front
        keeps its own copy of its rows of ``stack``.
        """
        evaluation = evaluator.evaluate_batch(stack)
        kept = np.flatnonzero(np.isfinite(evaluation.utility) & evaluation.feasible)
        privacy, utility = evaluation.privacy[kept], evaluation.utility[kept]
        rows = _front_rows(privacy, utility, keep_dominated=False)
        return cls(name, privacy[rows], utility[rows], stack=np.asarray(stack)[kept[rows]])

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

    def take(self, indices: np.ndarray) -> "ParetoFront":
        """The rows ``indices`` as a front of the same name; the matrix stack
        is shared, not copied."""
        return ParetoFront(
            self.name,
            self.privacy[indices],
            self.utility[indices],
            None if self.max_posterior is None else self.max_posterior[indices],
            self.stack,
            None if self.stack_rows is None else self.stack_rows[indices],
        )

    # -- protocol ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.privacy)

    def __getitem__(self, index: int) -> FrontRow:
        """Row ``index``; its matrix is a read-only copy of the stack row."""
        matrix = None if self.stack is None else self.stack[self.stack_rows[index]]
        return FrontRow(
            float(self.privacy[index]),
            float(self.utility[index]),
            None if self.max_posterior is None else float(self.max_posterior[index]),
            None if matrix is None else RRMatrix.from_validated(matrix),
        )

    def __iter__(self) -> Iterator[FrontRow]:
        return (self[index] for index in range(len(self)))

    @property
    def is_empty(self) -> bool:
        """Whether the front has no points (e.g. no feasible matrices)."""
        return len(self) == 0

    # -- views ------------------------------------------------------------------
    def as_minimization_array(self) -> np.ndarray:
        """Front as minimisation objectives ``(-privacy, utility)`` for the
        quality indicators."""
        return np.column_stack([-self.privacy, self.utility])

    @property
    def privacy_range(self) -> tuple[float, float]:
        """Smallest and largest privacy on the front."""
        if self.is_empty:
            raise ValidationError(f"front {self.name!r} is empty")
        return float(self.privacy.min()), float(self.privacy.max())

    # -- queries ------------------------------------------------------------------
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
        privacies, utilities = self.privacy, self.utility
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


def _front_rows(privacy: np.ndarray, utility: np.ndarray, keep_dominated: bool) -> np.ndarray:
    """Rows of the non-dominated points (every row with ``keep_dominated``;
    maximise privacy, minimise utility), ordered by ``(privacy, utility)``
    stably."""
    if keep_dominated or privacy.size == 0:
        rows = np.arange(privacy.size)
    else:
        rows = non_dominated_indices(np.column_stack([-privacy, utility]))
    return rows[np.lexsort((utility[rows], privacy[rows]))]


@dataclass(frozen=True)
class OptimizationResult:
    """Full result of an OptRR run.

    Attributes
    ----------
    front:
        The non-dominated rows recovered from the optimal set Ω, in
        ascending privacy (ties keep their given order).
    spectrum:
        All occupied Ω slots (dominated ones included) in slot order — the
        "detailed spectrum" the paper says Ω provides.  A finished run's
        front is taken from it, so both share one matrix stack.
    n_generations:
        Number of generations executed.
    n_evaluations:
        Number of matrix evaluations performed.
    """

    front: ParetoFront
    spectrum: ParetoFront
    n_generations: int = 0
    n_evaluations: int = 0

    def __post_init__(self) -> None:
        order = np.argsort(self.front.privacy, kind="stable")
        object.__setattr__(self, "front", self.front.take(order))

    def __len__(self) -> int:
        return len(self.front)

    def __iter__(self) -> Iterator[FrontRow]:
        return iter(self.front)

    @property
    def points(self) -> tuple[FrontRow, ...]:
        """The front's rows, built on demand."""
        return tuple(self.front)

    def privacy_values(self) -> np.ndarray:
        """Privacy of every front point (ascending)."""
        return self.front.privacy

    def utility_values(self) -> np.ndarray:
        """Utility (MSE) of every front point, aligned with
        :meth:`privacy_values`."""
        return self.front.utility

    def best_matrix_for_privacy(self, min_privacy: float) -> FrontRow:
        """The lowest-MSE point with privacy at least ``min_privacy``."""
        candidates = np.flatnonzero(self.front.privacy >= min_privacy)
        if candidates.size == 0:
            covers = self.front.privacy_range if len(self) else "nothing"
            raise OptimizationError(
                f"no optimized matrix achieves privacy >= {min_privacy}; "
                f"the front covers {covers}"
            )
        return self.front[candidates[np.argmin(self.front.utility[candidates])]]
