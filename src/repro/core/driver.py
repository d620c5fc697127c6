"""Step-based optimization driving with checkpoint/resume (public surface).

The implementation lives in :mod:`repro.emoo.driver`: NSGA-II runs on the
same stepwise driver as the OptRR optimizer, and the ``emoo`` layer must not
depend on ``repro.core``.  This
module is the import surface the RR-matrix layer, the experiment harness and
user code are documented against::

    from repro.core.driver import OptimizationDriver, checkpoint_scope

See :mod:`repro.emoo.driver` for the full design notes (step protocol,
checkpoint document layout, the bit-for-bit resume invariant, and the
ambient checkpoint scope used by cached grids).
"""

from repro.emoo.driver import (
    CHECKPOINT_VERSION,
    build_driver,
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointScope,
    GenerationSnapshot,
    OptimizationDriver,
    StepOutcome,
    SteppableOptimization,
    active_checkpoint_scope,
    checkpoint_scope,
    claim_scoped_checkpoint,
    population_from_document,
    population_to_document,
    workload_fingerprint,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "build_driver",
    "DEFAULT_CHECKPOINT_EVERY",
    "CheckpointScope",
    "GenerationSnapshot",
    "OptimizationDriver",
    "StepOutcome",
    "SteppableOptimization",
    "active_checkpoint_scope",
    "checkpoint_scope",
    "claim_scoped_checkpoint",
    "population_from_document",
    "population_to_document",
    "workload_fingerprint",
]
