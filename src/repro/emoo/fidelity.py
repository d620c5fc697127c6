"""Multi-fidelity evaluation scheduling for the EMOO engines.

Most objective-evaluation cost is spent on individuals nowhere near the
front.  The scheduler here evaluates every offspring generation at a cheap
reduced fidelity first (record subsampling plus a cheap posterior bound —
see :meth:`repro.metrics.evaluation.MatrixEvaluator.evaluate_batch`), then
promotes only the most promising fraction — ranked by Pareto front and
crowding distance, exactly the ordering NSGA-II survives by — to a full
fidelity re-evaluation before selection and archive offers see them.

Because the low-fidelity utility is an *upper bound* on the true utility
(subsampling scales the closed-form MSE by ``N / n_eff >= 1``), promotion
errs on the side of discarding, never on the side of letting an optimistic
estimate into the archive: only full-fidelity evaluations are ever offered
to the optimal set.

When the run's :class:`~repro.emoo.driver.StoppingRule` has a wall-clock
deadline the scheduler adapts its budget: as the deadline approaches, the
low fidelity is ratcheted *down* (never up, so the schedule is monotone
within a run and its state round-trips through checkpoints) to squeeze more
generations out of the remaining time.  Like the deadline itself, where adaptation fires is
wall-clock dependent; the bit-for-bit resume guarantee applies to the
scheduler *state*, which is checkpointed via :meth:`FidelityScheduler.
state_document`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.emoo.density import crowding_distances_from_objectives
from repro.emoo.dominance import pareto_ranks_from_arrays
from repro.exceptions import OptimizationError, ValidationError
from repro.utils.validation import check_counter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.emoo.population import Population

#: (progress-through-deadline threshold, multiplier on the configured low
#: fidelity) pairs, checked from latest to earliest: past 90% of the budget
#: the low fidelity drops to 1/8 of its configured value, past 75% to 1/4,
#: past 50% to 1/2.  Floored by ``FidelitySchedule.min_fidelity``.
DEADLINE_FIDELITY_STEPS: tuple[tuple[float, float], ...] = (
    (0.9, 0.125),
    (0.75, 0.25),
    (0.5, 0.5),
)


@dataclass(frozen=True)
class FidelitySchedule:
    """Configuration of the low-fidelity/promotion schedule.

    Attributes
    ----------
    low_fidelity:
        Fraction of the full record count used for the cheap first pass,
        in ``(0, 1)`` — a schedule at 1.0 would be pure overhead, so
        callers disable fidelity scheduling instead of configuring it.
    promotion_fraction:
        Fraction of each offspring batch promoted to full fidelity, in
        ``(0, 1]``; at least one individual is always promoted.
    min_fidelity:
        Floor the deadline adaptation can never push the low fidelity
        below, in ``(0, 1]``.
    """

    low_fidelity: float
    promotion_fraction: float = 0.25
    min_fidelity: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.low_fidelity < 1.0):
            raise OptimizationError(
                f"low_fidelity must lie in (0, 1), got {self.low_fidelity}"
            )
        if not (0.0 < self.promotion_fraction <= 1.0):
            raise OptimizationError(
                f"promotion_fraction must lie in (0, 1], got {self.promotion_fraction}"
            )
        if not (0.0 < self.min_fidelity <= 1.0):
            raise OptimizationError(
                f"min_fidelity must lie in (0, 1], got {self.min_fidelity}"
            )


class FidelityScheduler:
    """Drives one run's low-fidelity evaluation and promotion decisions.

    Stateful (current low fidelity after deadline adaptation, cumulative
    low/full evaluation counts) and checkpointable: :meth:`state_document` /
    :meth:`restore_state` round-trip everything a resumed run needs to
    continue bit-identically.
    """

    def __init__(self, schedule: FidelitySchedule) -> None:
        self.schedule = schedule
        self.current_low_fidelity = schedule.low_fidelity
        self.n_low_evaluations = 0
        self.n_full_evaluations = 0

    # -- promotion rule ------------------------------------------------------
    def promotion_count(self, batch_size: int) -> int:
        """How many of a ``batch_size`` batch get promoted to full fidelity."""
        if batch_size <= 0:
            return 0
        count = int(np.ceil(self.schedule.promotion_fraction * batch_size))
        return min(batch_size, max(1, count))

    def promote_indices(
        self, objectives: np.ndarray, feasible: np.ndarray | None = None
    ) -> np.ndarray:
        """Indices (ascending) of the batch rows promoted to full fidelity.

        NSGA-II survival ordering over the *low-fidelity* objectives: Pareto
        rank ascending, per-front crowding distance descending, original
        index as the deterministic tie-break.
        """
        objectives = np.asarray(objectives, dtype=np.float64)
        size = objectives.shape[0]
        count = self.promotion_count(size)
        if count >= size:
            return np.arange(size)
        ranks = pareto_ranks_from_arrays(objectives, feasible)
        crowding = np.zeros(size)
        for rank in range(int(ranks.max()) + 1):
            front = np.flatnonzero(ranks == rank)
            crowding[front] = crowding_distances_from_objectives(objectives[front])
        order = np.lexsort((np.arange(size), -crowding, ranks))
        return np.sort(order[:count])

    # -- evaluation paths ----------------------------------------------------
    def evaluate_stack(self, problem: Any, stack: np.ndarray) -> "Population":
        """Low-fidelity evaluate a genome stack (``(B, n, n)`` matrices on the
        RR path), promote the top fraction and splice their full-fidelity rows
        back in.

        ``problem`` is anything with an ``evaluate_population(stack, *,
        fidelity)`` hook returning a population, as
        :class:`~repro.core.problem.RRMatrixProblem` has.

        Every returned row carries a ``fidelity`` metadata column (promoted
        rows at 1.0), so archive offers can be restricted to full-fidelity
        rows.
        """
        population = problem.evaluate_population(stack, fidelity=self.current_low_fidelity)
        promote = self.promote_indices(population.objectives, population.feasible)
        full = problem.evaluate_population(stack[promote], fidelity=1.0)
        population.objectives[promote] = full.objectives
        population.feasible[promote] = full.feasible
        for key in population.metadata:
            population.metadata[key][promote] = full.metadata[key]
        self.n_low_evaluations += int(population.size)
        self.n_full_evaluations += int(promote.size)
        return population

    # -- deadline adaptation -------------------------------------------------
    def adapt(self, elapsed_seconds: float, deadline_seconds: float | None) -> None:
        """Ratchet the low fidelity down as a wall-clock deadline approaches.

        No-op without a deadline.  The adaptation is monotone (progress only
        grows and the fidelity only shrinks), so a resumed run that restores
        ``current_low_fidelity`` from a checkpoint can never jump back up.
        """
        if deadline_seconds is None or deadline_seconds <= 0:
            return
        progress = float(elapsed_seconds) / float(deadline_seconds)
        factor = 1.0
        for threshold, step in DEADLINE_FIDELITY_STEPS:
            if progress >= threshold:
                factor = step
                break
        target = max(self.schedule.min_fidelity, self.schedule.low_fidelity * factor)
        if target < self.current_low_fidelity:
            self.current_low_fidelity = target

    # -- checkpoint codec ----------------------------------------------------
    def state_document(self) -> dict[str, Any]:
        """JSON-compatible snapshot of the mutable scheduler state."""
        return {
            "current_low_fidelity": float(self.current_low_fidelity),
            "n_low_evaluations": int(self.n_low_evaluations),
            "n_full_evaluations": int(self.n_full_evaluations),
        }

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore the counters captured by :meth:`state_document`.

        ``current_low_fidelity`` must be a finite number in
        ``[min_fidelity, low_fidelity]`` — the only values the monotone
        ratchet can reach (just ``low_fidelity`` when the floor lies above
        it) — or :class:`~repro.exceptions.ValidationError` is raised.
        """
        fidelity = document.get("current_low_fidelity", self.schedule.low_fidelity)
        high = self.schedule.low_fidelity
        low = min(self.schedule.min_fidelity, high)
        if (
            isinstance(fidelity, bool)
            or not isinstance(fidelity, (int, float))
            or not low <= fidelity <= high
        ):
            raise ValidationError(
                f"checkpointed current_low_fidelity must be a number in "
                f"[{low}, {high}], got {fidelity!r}"
            )
        self.current_low_fidelity = float(fidelity)
        self.n_low_evaluations = check_counter(
            document.get("n_low_evaluations", 0), "checkpointed n_low_evaluations"
        )
        self.n_full_evaluations = check_counter(
            document.get("n_full_evaluations", 0), "checkpointed n_full_evaluations"
        )
