"""Frozen list-based OptRR generation loop (the pre-array-engine reference).

This module preserves, verbatim in behaviour, the ``Individual``-list
generation loop that :class:`~repro.core.optimizer.OptRROptimizer` used
before the structure-of-arrays population engine.  Candidates enter it as
``Individual`` lists materialised from the problem's stack hooks (the same
draws, repair and evaluation the list-returning problem methods performed).
Nothing in ``src/`` imports it.  It exists for two purposes:

* **Equivalence** — ``tests/test_engine_equivalence.py`` asserts that the
  array-native loop reproduces this loop's trajectory bit-for-bit when the
  single intentional semantic change is switched on here too
  (``reuse_archive_fitness=True``: mating selection reuses the union fitness
  environmental selection just assigned, instead of re-running SPEA2 fitness
  assignment on the archive alone — the canonical SPEA2 reading, and the fix
  for the redundant per-generation re-assignment).
* **Benchmarking** — ``benchmarks/bench_generation.py`` measures the
  end-to-end speedup of the array-native loop over this reference with
  ``reuse_archive_fitness=False`` (the exact pre-PR behaviour).

Do not "optimise" this module; its value is that it stays put.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OptRRConfig
from repro.core.problem import RRMatrixProblem
from repro.core.result import OptimizationResult
from repro.data.distribution import CategoricalDistribution
from repro.emoo.density import pairwise_distances
from repro.exceptions import OptimizationError
from repro.rr.matrix import stack_matrices
from repro.types import SeedLike, as_rng
from tests.oracles.individual import (
    Individual,
    objectives_array,
    result_from_members,
    row_individuals,
)
from tests.oracles.omega import OptimalSet
from tests.oracles.scalar import assign_spea2_fitness, binary_tournament


def reference_truncate_archive(
    archive: list[Individual], target_size: int
) -> list[Individual]:
    """The pre-PR SPEA2 truncation: per removal, slice the alive submatrix
    with ``np.ix_``, fully sort every row and lexsort — the O(removals × m²
    log m) loop the incremental :func:`repro.emoo.selection.truncate_indices`
    replaced.  Kept as the ground truth for the equivalence property tests."""
    survivors = list(archive)
    if len(survivors) <= target_size:
        return survivors
    distances = pairwise_distances(objectives_array(survivors))
    np.fill_diagonal(distances, np.inf)
    alive = np.arange(len(survivors))
    while alive.size > target_size:
        sub = distances[np.ix_(alive, alive)]
        sorted_rows = np.sort(sub, axis=1)
        # lexsort treats the LAST key as primary, so feed the columns
        # (nearest first) in reverse.
        order = np.lexsort(sorted_rows.T[::-1])
        alive = np.delete(alive, order[0])
    return [survivors[index] for index in alive]


def reference_environmental_selection(
    union: list[Individual],
    archive_size: int,
    *,
    density_k: int = 1,
) -> list[Individual]:
    """The pre-PR environmental selection over ``Individual`` lists (fresh
    fitness assignment, list building, reference truncation)."""
    if not union:
        raise OptimizationError("environmental selection needs a non-empty union")
    fitness = assign_spea2_fitness(union, density_k)
    non_dominated_mask = fitness < 1.0
    n_non_dominated = int(non_dominated_mask.sum())
    if n_non_dominated == archive_size:
        return [union[index] for index in np.flatnonzero(non_dominated_mask)]
    if n_non_dominated < archive_size:
        dominated_index = np.flatnonzero(~non_dominated_mask)
        best_dominated = dominated_index[
            np.argsort(fitness[dominated_index], kind="stable")
        ]
        needed = archive_size - n_non_dominated
        chosen = [union[index] for index in np.flatnonzero(non_dominated_mask)]
        chosen.extend(union[index] for index in best_dominated[:needed])
        return chosen
    non_dominated = [union[index] for index in np.flatnonzero(non_dominated_mask)]
    return reference_truncate_archive(non_dominated, archive_size)


def _evaluate_individuals(problem: RRMatrixProblem, stack: np.ndarray) -> list[Individual]:
    """Evaluate a ``(B, n, n)`` stack into an ``Individual`` list."""
    return row_individuals(problem.evaluate_population(stack))


def _baseline_seed_individuals(
    problem: RRMatrixProblem, config: OptRRConfig, rng: np.random.Generator
) -> list[Individual]:
    if config.baseline_seeds <= 0:
        return []
    from repro.rr.schemes import warner_matrix

    n = problem.n_categories
    retention_values = np.linspace(0.0, 1.0, config.baseline_seeds)
    matrices = [warner_matrix(n, float(retention)) for retention in retention_values]
    return _evaluate_individuals(problem, problem.repair_stack(stack_matrices(matrices)))


def _make_offspring(
    problem: RRMatrixProblem,
    config: OptRRConfig,
    archive: list[Individual],
    rng: np.random.Generator,
    *,
    reuse_archive_fitness: bool,
) -> np.ndarray:
    """Mating selection, crossover, mutation and bound repair over lists."""
    if not reuse_archive_fitness:
        # Pre-PR behaviour: re-assign SPEA2 fitness to the archive alone
        # (redundant — environmental selection assigned union fitness moments
        # earlier — and subtly non-canonical, since strength/density change
        # when computed over the archive instead of the union).
        assign_spea2_fitness(archive, config.density_k)
    parents = binary_tournament(archive, config.population_size, seed=rng)
    parent_stack = stack_matrices([parent.genome for parent in parents])
    n_parents = parent_stack.shape[0]
    first_index = np.arange(0, n_parents, 2)
    first = parent_stack[first_index]
    second = parent_stack[(first_index + 1) % n_parents]
    crossed = rng.random(size=first.shape[0]) < config.crossover_rate
    child_a = first.copy()
    child_b = second.copy()
    if crossed.any():
        cross_a, cross_b = problem.crossover_stack(first[crossed], second[crossed], rng)
        child_a[crossed] = cross_a
        child_b[crossed] = cross_b
    children = np.empty((2 * first.shape[0], *parent_stack.shape[1:]))
    children[0::2] = child_a
    children[1::2] = child_b
    children = children[: config.population_size]
    mutated = rng.random(size=children.shape[0]) < config.mutation_rate
    if mutated.any():
        children[mutated] = problem.mutate_stack(children[mutated], rng)
    return problem.repair_stack(children)


def _refresh_from_optimal_set(
    individuals: list[Individual],
    optimal_set: OptimalSet,
    *,
    reuse_archive_fitness: bool,
) -> None:
    for index, individual in enumerate(individuals):
        if not individual.feasible or "privacy" not in individual.metadata:
            continue
        slot = optimal_set.slot_of(float(individual.metadata["privacy"]))
        occupant = optimal_set.best_for_slot(slot)
        if occupant is None:
            continue
        if float(occupant.metadata["utility"]) < float(individual.metadata["utility"]):
            replacement = occupant.copy()
            if reuse_archive_fitness:
                # The array engine keeps the replaced row's selection fitness
                # so the archive stamp stays truthful; mirror that here.
                replacement.fitness = individual.fitness
            individuals[index] = replacement


def reference_optrr_run(
    prior: CategoricalDistribution,
    n_records: int,
    config: OptRRConfig,
    *,
    seed: SeedLike = None,
    reuse_archive_fitness: bool = False,
) -> OptimizationResult:
    """Run the frozen list-based OptRR loop and return its result.

    With ``reuse_archive_fitness=False`` this is the exact pre-PR loop; with
    ``True`` it applies the same fitness-reuse fix as the array engine (and is
    then bit-for-bit equivalent to :meth:`OptRROptimizer.run`, RNG stream
    included).
    """
    if not isinstance(prior, CategoricalDistribution):
        prior = CategoricalDistribution(np.asarray(prior, dtype=np.float64))
    problem = RRMatrixProblem(
        prior=prior,
        n_records=n_records,
        delta=config.delta,
        mutation_scale=config.mutation_scale,
        diagonal_bias=config.diagonal_bias,
    )
    rng = as_rng(seed if seed is not None else config.seed)
    # The stopping rule: the generation budget, or ``stagnation_patience``
    # consecutive generations without an update to Ω.
    patience = config.stagnation_patience
    stale = 0

    population = row_individuals(problem.initial_population_soa(config.population_size, rng))
    baseline_seeds = _baseline_seed_individuals(problem, config, rng)
    if not population:
        raise OptimizationError("initial population is empty")
    archive: list[Individual] = []
    optimal_set = OptimalSet(config.optimal_set_size)
    optimal_set.offer_many(population)
    optimal_set.offer_many(baseline_seeds)
    if baseline_seeds:
        stride = max(1, len(baseline_seeds) // 25)
        population.extend(baseline_seeds[::stride])

    generation = 0
    while True:
        union = population + archive
        archive = reference_environmental_selection(
            union, config.archive_size, density_k=config.density_k
        )
        offspring_stack = _make_offspring(
            problem, config, archive, rng, reuse_archive_fitness=reuse_archive_fitness
        )
        population = _evaluate_individuals(problem, offspring_stack)
        updates = optimal_set.offer_many(population)
        updates += optimal_set.offer_many(archive)
        _refresh_from_optimal_set(
            population, optimal_set, reuse_archive_fitness=reuse_archive_fitness
        )
        _refresh_from_optimal_set(
            archive, optimal_set, reuse_archive_fitness=reuse_archive_fitness
        )
        stale = 0 if updates > 0 else stale + 1
        if generation + 1 >= config.n_generations or (
            patience is not None and stale >= patience
        ):
            break
        generation += 1

    front = optimal_set.pareto_members()
    if not front:
        front = archive
    return result_from_members(
        front,
        optimal_set.members(),
        n_generations=generation + 1,
        n_evaluations=problem.n_evaluations,
    )
