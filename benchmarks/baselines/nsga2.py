"""NSGA-II: an alternative EMOO algorithm used for ablation benchmarks.

The paper chooses SPEA2 on the strength of published comparison studies.  To
make that design choice checkable in this reproduction, the benchmark harness
runs the same RR-matrix problem through NSGA-II (non-dominated sorting plus
crowding distance) and compares the resulting fronts with the
front-quality indicators in :mod:`repro.emoo.indicators`.

NSGA-II runs on the package's public pieces: the problem's stack hooks, the
stepwise driver (it is a :class:`~repro.emoo.driver.SteppableOptimization`,
so it checkpoints and resumes like OptRR), the fidelity scheduler and the
dominance and crowding kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.emoo.density import crowding_distances_from_objectives
from repro.emoo.dominance import non_dominated_indices, pareto_ranks_from_arrays
from repro.emoo.driver import (
    OptimizationDriver,
    StepOutcome,
    SteppableOptimization,
    build_driver,
    population_from_document,
    population_to_document,
    workload_fingerprint,
)
from repro.emoo.fidelity import FidelitySchedule, FidelityScheduler
from repro.emoo.population import Population
from repro.exceptions import OptimizationError
from repro.types import SeedLike, as_rng
from repro.utils.arrays import decode_array, encode_array
from repro.utils.validation import check_counter, check_in_unit_interval, check_positive_int

#: Callback invoked after each generation with (generation index, survivors,
#: their Pareto ranks).
GenerationCallback = Callable[[int, Population, np.ndarray], None]


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
    ``fingerprint_document``).

    ``fidelity`` optionally enables multi-fidelity offspring evaluation with
    promotion of the top fraction (see :mod:`repro.emoo.fidelity`); it
    requires a problem whose ``evaluate_population`` supports the
    ``fidelity`` keyword, and ``None`` keeps the exact single-fidelity path.
    ``n_generations`` is the generation budget.
    """

    problem: Any
    settings: NSGA2Settings = field(default_factory=NSGA2Settings)
    n_generations: int = 100
    seed: SeedLike = None
    fidelity: FidelitySchedule | None = None

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
        self.fidelity: FidelityScheduler | None = (
            FidelityScheduler(algorithm.fidelity) if algorithm.fidelity is not None else None
        )

    def setup(self, rng: np.random.Generator) -> None:
        algorithm = self._algorithm
        # Fidelity-scheduled offspring carry a ``fidelity`` metadata column,
        # so the initial population is evaluated (at full fidelity) with one
        # too: Population.concat requires identical columns.
        self.population = algorithm.problem.initial_population_soa(
            algorithm.settings.population_size,
            rng,
            fidelity=1.0 if self.fidelity is not None else None,
        )
        if self.population.size == 0:
            raise OptimizationError("the problem produced an empty initial population")
        self.ranks, self.crowding = algorithm._rank_and_crowd_arrays(self.population)
        self.n_evaluations = self.population.size

    def step(self, rng: np.random.Generator, generation: int) -> StepOutcome:
        algorithm = self._algorithm
        offspring_stack = algorithm._make_offspring(
            self.population, self.ranks, self.crowding, rng
        )
        if self.fidelity is None:
            offspring = algorithm.problem.evaluate_population(offspring_stack)
            self.n_evaluations += offspring.size
        else:
            spent = self.fidelity.n_low_evaluations + self.fidelity.n_full_evaluations
            offspring = self.fidelity.evaluate_stack(algorithm.problem, offspring_stack)
            self.n_evaluations += (
                self.fidelity.n_low_evaluations + self.fidelity.n_full_evaluations - spent
            )
        union = Population.concat(self.population, offspring)
        self.population, self.ranks, self.crowding = algorithm._select_next_generation(
            union
        )
        n_low = self.fidelity.n_low_evaluations if self.fidelity is not None else 0
        return StepOutcome(
            archive_updates=1,
            n_evaluations=self.n_evaluations,
            n_full_evaluations=self.n_evaluations - n_low,
            n_low_evaluations=n_low,
        )

    def notify_progress(self, elapsed_seconds: float, deadline_seconds: float | None) -> None:
        if self.fidelity is not None:
            self.fidelity.adapt(elapsed_seconds, deadline_seconds)

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

        payload = {
            "algorithm": self.algorithm_name,
            "problem": self._algorithm.problem.fingerprint_document(),
            "settings": asdict(self._algorithm.settings),
        }
        # Keyed only when scheduling is on, so fingerprints of plain runs
        # stay identical to pre-fidelity checkpoints.
        if self._algorithm.fidelity is not None:
            payload["fidelity"] = asdict(self._algorithm.fidelity)
        return workload_fingerprint(payload)

    def state_document(self) -> dict:
        document = {
            "population": population_to_document(self.population),
            "ranks": encode_array(self.ranks),
            "crowding": encode_array(self.crowding),
            "n_evaluations": self.n_evaluations,
        }
        if self.fidelity is not None:
            document["fidelity"] = self.fidelity.state_document()
        return document

    def restore_state(self, document: dict) -> None:
        self.population = population_from_document(document["population"])
        self.ranks = decode_array(document["ranks"])
        self.crowding = decode_array(document["crowding"])
        self.n_evaluations = check_counter(
            document["n_evaluations"], "checkpointed n_evaluations"
        )
        fidelity_state = document.get("fidelity")
        if self.fidelity is not None and fidelity_state is not None:
            self.fidelity.restore_state(fidelity_state)
