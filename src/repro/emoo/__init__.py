"""Evolutionary multi-objective optimization (EMOO) substrate.

The array kernels of SPEA2 (fitness, density, environmental selection and
truncation — the algorithm the paper builds on, assembled into OptRR by
``repro.core``), the stepwise checkpointing driver with its stopping rule,
multi-fidelity scheduling, Pareto dominance utilities, the crowding
distance and front-quality indicators.

The kernels work on genome stacks and structure-of-arrays
:class:`~repro.emoo.population.Population` objects; the only problem in the
package is :class:`repro.core.problem.RRMatrixProblem`, with ``(P, n, n)``
RR-matrix stacks.  OptRR is the package's one optimizer; the NSGA-II and
weighted-sum ablation baselines live in ``benchmarks/baselines`` and run on
the same public pieces.
"""

from repro.emoo.dominance import (
    dominance_matrix_from_arrays,
    non_dominated_indices,
    pareto_ranks_from_arrays,
)
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.density import (
    crowding_distances_from_objectives,
    kth_nearest_distances,
    pairwise_distances,
    spea2_density,
)
from repro.emoo.population import Population
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
    truncate_indices,
)
from repro.emoo.driver import (
    GenerationSnapshot,
    OptimizationDriver,
    SteppableOptimization,
    StoppingRule,
    checkpoint_scope,
)
from repro.emoo.fidelity import FidelitySchedule, FidelityScheduler
from repro.emoo.indicators import (
    coverage,
    epsilon_indicator,
    hypervolume_2d,
    spread_2d,
)

__all__ = [
    "FidelitySchedule",
    "FidelityScheduler",
    "GenerationSnapshot",
    "OptimizationDriver",
    "SteppableOptimization",
    "StoppingRule",
    "checkpoint_scope",
    "Population",
    "binary_tournament_indices",
    "coverage",
    "crowding_distances_from_objectives",
    "dominance_matrix_from_arrays",
    "environmental_selection_indices",
    "epsilon_indicator",
    "hypervolume_2d",
    "kth_nearest_distances",
    "non_dominated_indices",
    "pairwise_distances",
    "pareto_ranks_from_arrays",
    "spea2_density",
    "spea2_fitness_from_arrays",
    "spread_2d",
    "truncate_indices",
]
