"""Evolutionary multi-objective optimization (EMOO) substrate.

The array kernels of SPEA2 (fitness, density, environmental selection and
truncation — the algorithm the paper builds on, assembled into OptRR by
``repro.core``), the NSGA-II and weighted-sum baselines used by the ablation
benchmarks, the stepwise checkpointing driver with its stopping rule,
multi-fidelity scheduling, Pareto dominance utilities and front-quality
indicators.

Every engine works on genome stacks — a problem supplies stack creation,
evaluation into a structure-of-arrays
:class:`~repro.emoo.population.Population`, and batched variation and
repair through the :class:`~repro.emoo.problem.Problem` interface — and
returns its survivors and front as populations.  ``repro.core``
instantiates it with ``(P, n, n)`` RR-matrix stacks.
"""

from repro.emoo.dominance import (
    dominance_matrix_from_arrays,
    non_dominated_indices,
    pareto_ranks_from_arrays,
)
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.density import kth_nearest_distances, pairwise_distances, spea2_density
from repro.emoo.population import Population
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
    truncate_indices,
)
from repro.emoo.problem import Problem
# The driver must load before the algorithm built on it (nsga2).
from repro.emoo.driver import (
    GenerationSnapshot,
    OptimizationDriver,
    SteppableOptimization,
    StoppingRule,
    checkpoint_scope,
)
from repro.emoo.fidelity import FidelitySchedule, FidelityScheduler
from repro.emoo.nsga2 import NSGA2, NSGA2Settings, crowding_distances_from_objectives
from repro.emoo.weighted_sum import WeightedSumGA, WeightedSumSettings
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
    "NSGA2",
    "NSGA2Settings",
    "Population",
    "Problem",
    "WeightedSumGA",
    "WeightedSumSettings",
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
