"""Exception hierarchy for the ``repro`` (OptRR) library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Sub-classes map onto the major subsystems: the
randomized-response substrate, the privacy/utility metrics, the evolutionary
optimizer, the data generators, and the experiment harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class ValidationError(ReproError, ValueError):
    """An input failed validation (shape, range, stochasticity, ...)."""


class RRMatrixError(ValidationError):
    """An RR matrix is malformed (not square, not column-stochastic, ...)."""


class SingularMatrixError(ReproError):
    """An RR matrix is singular (or numerically close to singular) and the
    inversion-based estimator cannot be applied."""


class EstimationError(ReproError):
    """A distribution estimation procedure failed (e.g. the iterative
    estimator did not converge within the iteration budget)."""


class InfeasibleBoundError(ReproError):
    """The requested worst-case privacy bound ``delta`` cannot be satisfied.

    Theorem 5 in the paper shows ``max_Y P(X_hat | Y) >= max_X P(X)``; a bound
    below the largest prior probability is impossible for any RR matrix.
    """


class OptimizationError(ReproError):
    """The evolutionary optimizer was configured or driven incorrectly."""


class DataError(ValidationError):
    """A dataset or distribution specification is invalid."""


class ExperimentError(ReproError):
    """An experiment is unknown or was configured inconsistently."""


class CheckpointCorruptionError(ValidationError):
    """A checkpoint file exists but cannot be decoded or validated.

    Distinct from a *missing* checkpoint (:class:`FileNotFoundError`): a
    corrupt file is quarantined and resume falls back to the previous valid
    checkpoint, while a missing one simply means a fresh start.
    """


class GridCellError(ReproError):
    """A grid cell exhausted its attempts without producing a result.

    Raised (when quarantine is disabled) for failure modes that leave no
    Python exception to re-raise — a worker process that died or was killed
    for exceeding the cell timeout.  ``failure`` carries the cell's full
    attempt history (a :class:`repro.experiments.grid.CellFailure`).
    """

    def __init__(self, message: str, failure: object | None = None) -> None:
        super().__init__(message)
        self.failure = failure


class FaultInjectedError(ReproError):
    """An error deliberately raised by the fault-injection harness
    (:mod:`repro.faults`) — never seen outside chaos tests."""

