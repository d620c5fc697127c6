"""OptRR core: the paper's SPEA2-based search for optimal RR matrices.

This package turns the EMOO substrate (:mod:`repro.emoo`) into the paper's
algorithm: ``(P, n, n)`` stacks of RR matrices are the genomes, privacy (Eq. 8) and utility
(Theorem 6) are the two objectives, the variation operators respect the
column-stochastic constraint, a repair step enforces the worst-case bound
``delta`` (Eq. 9), and an unbounded-cost *optimal set* Ω keeps every good
matrix evicted from the bounded archive.
"""

from repro.core.config import OptRRConfig
from repro.core.archive import OptimalSet
from repro.emoo.driver import (
    DEFAULT_CHECKPOINT_EVERY,
    GenerationSnapshot,
    OptimizationDriver,
    SteppableOptimization,
    checkpoint_scope,
)
from repro.core.operators import (
    column_crossover_batch,
    enforce_privacy_bound_batch,
    proportional_column_mutation_batch,
    random_initial_matrices,
)
from repro.core.problem import RRMatrixProblem
from repro.core.optimizer import OptRROptimizer
from repro.core.result import OptimizationResult
from repro.core.search_space import rr_matrix_combinations

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "GenerationSnapshot",
    "OptRRConfig",
    "OptRROptimizer",
    "OptimalSet",
    "OptimizationDriver",
    "OptimizationResult",
    "SteppableOptimization",
    "checkpoint_scope",
    "RRMatrixProblem",
    "column_crossover_batch",
    "enforce_privacy_bound_batch",
    "proportional_column_mutation_batch",
    "random_initial_matrices",
    "rr_matrix_combinations",
]
