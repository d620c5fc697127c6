"""NSGA-II: an alternative EMOO algorithm used for ablation benchmarks.

The paper chooses SPEA2 on the strength of published comparison studies.  To
make that design choice checkable in this reproduction, the benchmark harness
runs the same RR-matrix problem through NSGA-II (non-dominated sorting plus
crowding distance) and compares the resulting fronts with the
front-quality indicators in :mod:`repro.emoo.indicators`.

NSGA-II runs on the package's public pieces: the problem's stack hooks, the
stepwise driver (it is a :class:`~repro.emoo.driver.SteppableOptimization`,
so it checkpoints and resumes like OptRR) and the dominance kernels.  The
two NSGA-II-only kernels, non-dominated sorting
(:func:`pareto_ranks_from_arrays`) and the crowding distance
(:func:`crowding_distances_from_objectives`), live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.emoo.dominance import dominance_matrix_from_arrays, non_dominated_indices
from repro.emoo.driver import (
    OptimizationDriver,
    StepOutcome,
    SteppableOptimization,
    build_driver,
    population_from_document,
    population_to_document,
    workload_fingerprint,
)
from repro.emoo.population import Population
from repro.exceptions import OptimizationError
from repro.types import SeedLike, as_rng
from repro.utils.arrays import decode_array, encode_array
from repro.utils.validation import check_counter, check_in_unit_interval, check_positive_int

#: Callback invoked after each generation with (generation index, survivors,
#: their Pareto ranks).
GenerationCallback = Callable[[int, Population, np.ndarray], None]


def pareto_ranks_from_arrays(
    objectives: np.ndarray, feasible: np.ndarray | None = None
) -> np.ndarray:
    """Non-dominated sorting ranks (0 = first front) over raw arrays.

    Fronts are peeled with boolean matrix reductions instead of per-individual
    queues: at each step the individuals not dominated by any still-alive
    individual form the next front.  Equivalent to the classic fast
    non-dominated sort (Deb's domination-count loop), but every peel is one
    ``any``-reduction over the dominance matrix.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    size = objectives.shape[0]
    ranks = np.full(size, -1, dtype=np.int64)
    if size == 0:
        return ranks
    matrix = dominance_matrix_from_arrays(objectives, feasible)
    alive = np.ones(size, dtype=bool)
    front_index = 0
    while alive.any():
        dominated_by_alive = matrix[alive].any(axis=0)
        front = alive & ~dominated_by_alive
        # A strict partial order always has minimal elements, so the peel
        # terminates; guard anyway so a broken dominance matrix cannot hang.
        assert front.any(), "non-dominated sorting failed to peel a front"
        ranks[front] = front_index
        alive &= ~front
        front_index += 1
    return ranks


def crowding_distances_from_objectives(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance of every row of a single front's objective array.

    Pure array computation (one stable argsort per objective).
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    size = objectives.shape[0]
    if size == 0:
        return np.empty(0)
    distances = np.zeros(size, dtype=np.float64)
    for objective_index in range(objectives.shape[1]):
        order = np.argsort(objectives[:, objective_index], kind="stable")
        values = objectives[order, objective_index]
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        value_range = values[-1] - values[0]
        if value_range <= 0 or size <= 2:
            continue
        spacing = (values[2:] - values[:-2]) / value_range
        distances[order[1:-1]] += spacing
    return distances


@dataclass(frozen=True)
class NSGA2Settings:
    """Hyper-parameters of the NSGA-II run."""

    population_size: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3

    def __post_init__(self) -> None:
        check_positive_int(self.population_size, "population_size")
        check_in_unit_interval(self.crossover_rate, "crossover_rate")
        check_in_unit_interval(self.mutation_rate, "mutation_rate")


@dataclass
class NSGA2Result:
    """Outcome of an NSGA-II run: the final survivors with their Pareto
    ranks and crowding distances (aligned to the population rows), and the
    survivors' non-dominated rows as a ``front`` population, in row order."""

    population: Population
    ranks: np.ndarray
    crowding: np.ndarray
    front: Population
    n_generations: int
    n_evaluations: int


@dataclass
class NSGA2:
    """The NSGA-II evolutionary multi-objective optimizer.

    ``problem`` supplies the genome-stack hooks
    :class:`~repro.core.problem.RRMatrixProblem` defines
    (``initial_population_soa``, ``evaluate_population``,
    ``crossover_stack``, ``mutate_stack``, ``repair_stack`` and
    ``fingerprint_document``).  ``n_generations`` is the generation budget.
    """

    problem: Any
    settings: NSGA2Settings = field(default_factory=NSGA2Settings)
    n_generations: int = 100
    seed: SeedLike = None

    def run(self, on_generation: GenerationCallback | None = None) -> NSGA2Result:
        """Run the optimization and return the result.

        Thin wrapper over the stepwise driver (:meth:`driver`).  Array-native:
        rank and crowding live as arrays alongside a structure-of-arrays
        :class:`~repro.emoo.population.Population`, and the crowded binary
        tournament draws and decides every pair in one vectorized step.

        ``on_generation`` receives the generation index, the surviving
        population and its Pareto ranks.
        """
        driver = self.driver()
        algorithm = driver.optimization
        for snapshot in driver.steps():
            if on_generation is not None:
                on_generation(snapshot.generation, algorithm.population, algorithm.ranks)
        return driver.result()

    def driver(
        self,
        *,
        seed: SeedLike = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int | None = None,
        deadline: float | None = None,
    ) -> OptimizationDriver:
        """Build the stepwise driver for this NSGA-II instance (same
        contract as :meth:`repro.core.optimizer.OptRROptimizer.driver`,
        including the ambient checkpoint scope)."""
        return build_driver(
            _NSGA2Steppable(self),
            max_generations=self.n_generations,
            rng=as_rng(seed if seed is not None else self.seed),
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            deadline=deadline,
        )

    # -- internals -----------------------------------------------------------
    def _rank_and_crowd_arrays(
        self, population: Population
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pareto ranks and per-front crowding distances as arrays."""
        ranks = pareto_ranks_from_arrays(population.objectives, population.feasible)
        crowding = np.zeros(population.size)
        for rank in range(int(ranks.max()) + 1 if ranks.size else 0):
            front_index = np.flatnonzero(ranks == rank)
            crowding[front_index] = crowding_distances_from_objectives(
                population.objectives[front_index]
            )
        return ranks, crowding

    def _select_next_generation(
        self, union: Population
    ) -> tuple[Population, np.ndarray, np.ndarray]:
        """Fill the next generation front by front, splitting the last front
        on crowding distance; returns the survivors with their rank and
        crowding arrays (aligned to the returned population)."""
        target = self.settings.population_size
        ranks = pareto_ranks_from_arrays(union.objectives, union.feasible)
        crowding = np.zeros(union.size)
        chosen: list[np.ndarray] = []
        n_chosen = 0
        for rank in range(int(ranks.max()) + 1):
            front_index = np.flatnonzero(ranks == rank)
            distances = crowding_distances_from_objectives(union.objectives[front_index])
            crowding[front_index] = distances
            if n_chosen + front_index.size <= target:
                chosen.append(front_index)
                n_chosen += front_index.size
            else:
                # Stable sort on negated crowding keeps original order between
                # ties, matching the list.sort(reverse=True) it replaces.
                order = np.argsort(-distances, kind="stable")
                chosen.append(front_index[order[: target - n_chosen]])
                n_chosen = target
            if n_chosen >= target:
                break
        selected = np.concatenate(chosen)
        return union.take(selected), ranks[selected], crowding[selected]

    def _make_offspring(
        self,
        population: Population,
        ranks: np.ndarray,
        crowding: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Crowded-tournament mating selection + crossover + mutation + repair,
        producing the offspring as one genome stack.

        All tournament pairs and the crossover/mutation decision masks are
        drawn up front in vectorized steps (one ``integers`` call for the
        parents, one ``random`` call per mask).  Crossover and mutation then
        run pair by pair and child by child as batches of one, so the RNG
        stream interleaves the operators' draws in that order; repair runs
        once over the whole offspring stack.
        """
        settings = self.settings
        problem = self.problem
        n_pairs = (settings.population_size + 1) // 2
        contenders = rng.integers(0, population.size, size=(2 * n_pairs, 2))
        winners = self._crowded_winners(contenders, ranks, crowding)
        crossed = rng.random(size=n_pairs) < settings.crossover_rate
        children = population.genomes[winners]
        for pair in np.flatnonzero(crossed):
            first = slice(2 * pair, 2 * pair + 1)
            second = slice(2 * pair + 1, 2 * pair + 2)
            children[first], children[second] = problem.crossover_stack(
                children[first], children[second], rng
            )
        children = children[: settings.population_size]
        mutated = rng.random(size=children.shape[0]) < settings.mutation_rate
        for index in np.flatnonzero(mutated):
            children[index : index + 1] = problem.mutate_stack(
                children[index : index + 1], rng
            )
        return problem.repair_stack(children)

    @staticmethod
    def _crowded_winners(
        contenders: np.ndarray, ranks: np.ndarray, crowding: np.ndarray
    ) -> np.ndarray:
        """Vectorized crowded-comparison tournaments: lower rank wins, ties
        broken by larger crowding distance, full ties go to the second
        contestant."""
        first, second = contenders[:, 0], contenders[:, 1]
        first_wins = (ranks[first] < ranks[second]) | (
            (ranks[first] == ranks[second]) & (crowding[first] > crowding[second])
        )
        return np.where(first_wins, first, second)


class _NSGA2Steppable(SteppableOptimization):
    """The NSGA-II generation loop decomposed for the stepwise driver.

    The rank and crowding arrays are part of the checkpointed state: mating
    selection at generation ``g+1`` reads the arrays produced by the
    environmental selection of generation ``g``.
    """

    algorithm_name = "nsga2"

    def __init__(self, algorithm: NSGA2) -> None:
        self._algorithm = algorithm
        self.population: Population | None = None
        self.ranks: np.ndarray | None = None
        self.crowding: np.ndarray | None = None
        self.n_evaluations = 0

    def setup(self, rng: np.random.Generator) -> None:
        algorithm = self._algorithm
        self.population = algorithm.problem.initial_population_soa(
            algorithm.settings.population_size, rng
        )
        if self.population.size == 0:
            raise OptimizationError("the problem produced an empty initial population")
        self.ranks, self.crowding = algorithm._rank_and_crowd_arrays(self.population)
        self.n_evaluations = self.population.size

    def step(self, rng: np.random.Generator, generation: int) -> StepOutcome:
        algorithm = self._algorithm
        offspring = algorithm.problem.evaluate_population(
            algorithm._make_offspring(self.population, self.ranks, self.crowding, rng)
        )
        self.n_evaluations += offspring.size
        union = Population.concat(self.population, offspring)
        self.population, self.ranks, self.crowding = algorithm._select_next_generation(
            union
        )
        return StepOutcome(archive_updates=1, n_evaluations=self.n_evaluations)

    def finish(self, generation: int) -> NSGA2Result:
        population = self.population
        return NSGA2Result(
            population=population,
            ranks=self.ranks,
            crowding=self.crowding,
            front=population.take(
                non_dominated_indices(population.objectives, population.feasible)
            ),
            n_generations=generation + 1,
            n_evaluations=self.n_evaluations,
        )

    def setup_fingerprint(self) -> str:
        from dataclasses import asdict

        return workload_fingerprint(
            {
                "algorithm": self.algorithm_name,
                "problem": self._algorithm.problem.fingerprint_document(),
                "settings": asdict(self._algorithm.settings),
            }
        )

    def state_document(self) -> dict:
        return {
            "population": population_to_document(self.population),
            "ranks": encode_array(self.ranks),
            "crowding": encode_array(self.crowding),
            "n_evaluations": self.n_evaluations,
        }

    def restore_state(self, document: dict) -> None:
        self.population = population_from_document(document["population"])
        self.ranks = decode_array(document["ranks"])
        self.crowding = decode_array(document["crowding"])
        self.n_evaluations = check_counter(
            document["n_evaluations"], "checkpointed n_evaluations"
        )
