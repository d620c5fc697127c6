"""The OptRR optimizer: SPEA2 customised for RR matrices (Section V).

The driver below follows the paper's algorithm outline:

1. *Fitness assignment* over the union of population and archive (SPEA2
   strength + raw fitness + density);
2. *Environmental selection* into a bounded archive with diversity-preserving
   truncation;
3. *Mating selection* by binary tournament;
4. *Crossover and mutation* with the RR-matrix-specific operators;
5. *Meeting the bound*: repair every offspring so ``max P(X|Y) <= delta``;
6. *Updating the three sets*: offer the archive and the offspring to the
   optimal set Ω (privacy-indexed), and inject Ω's best matrices back into
   the evolving sets so good discarded solutions keep participating;
7. *Termination*: a fixed generation budget and/or Ω-stagnation patience.

The whole loop is array-native: population and archive are
structure-of-arrays :class:`~repro.emoo.population.Population` objects whose
``(P, n, n)`` genome stack is built once per generation by the batch
evaluator and only sliced by index afterwards.  The pairwise
objective-distance matrix is computed once per generation and shared between
density estimation and archive truncation; mating selection reuses the
fitness environmental selection just assigned (stamped per generation, so
staleness is impossible) instead of re-running fitness assignment on the
archive.  Ω itself is slot-indexed columns (:mod:`repro.core.archive`), so
offers and the reverse refresh are whole-column operations; a candidate is
only ever a population row, and Ω's rows become the result's
:class:`~repro.core.result.ParetoFront` columns only in ``finish()``.  The
pre-array list-based loop is preserved verbatim in
``tests/oracles/optrr_loop.py`` for equivalence tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro.core.archive import OptimalSet
from repro.core.config import OptRRConfig
from repro.emoo.driver import (
    OptimizationDriver,
    StepOutcome,
    SteppableOptimization,
    build_driver,
    check_checkpoint_version,
    population_from_document,
    population_to_document,
    workload_fingerprint,
)
from repro.core.problem import RRMatrixProblem
from repro.core.result import OptimizationResult
from repro.data.distribution import CategoricalDistribution
from repro.emoo.density import pairwise_distances
from repro.emoo.dominance import non_dominated_indices
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.population import Population
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
)
from repro.exceptions import ValidationError
from repro.metrics.privacy import check_bound_feasible
from repro.types import SeedLike, as_rng
from repro.utils.logging import get_logger
from repro.utils.validation import check_stochastic_stack

logger = get_logger(__name__)

#: Progress callback invoked after each generation with
#: (generation index, archive, optimal set).
ProgressCallback = Callable[[int, Population, OptimalSet], None]


@dataclass
class OptRROptimizer:
    """Search for Pareto-optimal RR matrices for a given data distribution.

    Parameters
    ----------
    prior:
        The original data distribution ``P(X)`` (a
        :class:`~repro.data.distribution.CategoricalDistribution` or a
        probability vector).
    n_records:
        Number of records ``N`` of the dataset to be disguised; enters the
        closed-form utility (Theorem 6).
    config:
        Optimization hyper-parameters, including the privacy bound ``delta``.

    Examples
    --------
    >>> from repro.core.config import OptRRConfig
    >>> from repro.core.optimizer import OptRROptimizer
    >>> from repro.data.synthetic import normal_distribution
    >>> prior = normal_distribution(5)
    >>> config = OptRRConfig(n_generations=20, delta=0.8, seed=7)
    >>> result = OptRROptimizer(prior, n_records=1000, config=config).run()
    >>> len(result) > 0
    True
    """

    prior: CategoricalDistribution
    n_records: int
    config: OptRRConfig = field(default_factory=OptRRConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.prior, CategoricalDistribution):
            self.prior = CategoricalDistribution(np.asarray(self.prior, dtype=np.float64))
        if self.config.delta is not None:
            check_bound_feasible(self.prior.probabilities, self.config.delta)
        self._problem = RRMatrixProblem(
            prior=self.prior,
            n_records=self.n_records,
            delta=self.config.delta,
            mutation_scale=self.config.mutation_scale,
            diagonal_bias=self.config.diagonal_bias,
        )

    @property
    def problem(self) -> RRMatrixProblem:
        """The underlying EMOO problem (exposed for ablations and tests)."""
        return self._problem

    def run(
        self,
        *,
        seed: SeedLike = None,
        on_generation: ProgressCallback | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int | None = None,
        deadline: float | None = None,
    ) -> OptimizationResult:
        """Run the optimization and return the resulting Pareto front.

        Thin wrapper over the stepwise :meth:`driver`; the loop itself lives
        in :class:`~repro.emoo.driver.OptimizationDriver`.

        Parameters
        ----------
        seed:
            Overrides ``config.seed`` when provided.
        on_generation:
            Optional callback invoked after every generation with the
            generation index, the archive population and Ω.
        checkpoint_path:
            Write resumable ``checkpoint`` documents to this file (see
            :meth:`driver`); resuming goes through
            :meth:`from_checkpoint` + :meth:`OptimizationDriver.restore`.
        checkpoint_every:
            Checkpoint cadence in generations (default
            :data:`~repro.emoo.driver.DEFAULT_CHECKPOINT_EVERY`).
        deadline:
            Optional wall-clock budget in seconds; the run also stops on the
            configured generation budget and stagnation patience.
        """
        driver = self.driver(
            seed=seed,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            deadline=deadline,
        )
        return self.run_driver(driver, on_generation=on_generation)

    def run_driver(
        self,
        driver: OptimizationDriver,
        *,
        on_generation: ProgressCallback | None = None,
    ) -> OptimizationResult:
        """Drive a (possibly restored) driver to termination."""
        algorithm = driver.optimization
        for snapshot in driver.steps():
            if on_generation is not None:
                on_generation(snapshot.generation, algorithm.archive, algorithm.optimal_set)
        result = driver.result()
        logger.debug(
            "OptRR finished: %d generations, %d evaluations, front size %d, "
            "privacy range %s",
            result.n_generations,
            result.n_evaluations,
            len(result),
            result.front.privacy_range if len(result) else "n/a",
        )
        return result

    def driver(
        self,
        *,
        seed: SeedLike = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int | None = None,
        deadline: float | None = None,
    ) -> OptimizationDriver:
        """Build the stepwise driver for this optimizer.

        The stopping rule is the configured generation budget and
        stagnation patience plus ``deadline``.  When no ``checkpoint_path``
        is given, the ambient :func:`~repro.emoo.driver.checkpoint_scope` (set
        by the cached-grid executor around every campaign cell) is consulted:
        the run claims a checkpoint file in the scope's directory, resumes
        automatically from a matching previous checkpoint, and honours the
        scope's remaining wall-clock deadline.
        """
        return build_driver(
            _OptRRSteppable(self),
            max_generations=self.config.n_generations,
            patience=self.config.stagnation_patience,
            rng=as_rng(seed if seed is not None else self.config.seed),
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            deadline=deadline,
        )

    @classmethod
    def from_checkpoint(cls, document: dict) -> "OptRROptimizer":
        """Rebuild the optimizer a ``checkpoint`` document was written by.

        The checkpoint embeds the full workload setup (prior, record count,
        configuration), so ``optrr optimize --resume`` needs nothing but the
        checkpoint file.  Restore the run state itself with
        :meth:`OptimizationDriver.restore` on :meth:`driver`'s result.  The
        setup layout is versioned, so another ``checkpoint_version`` is
        rejected before it is read.
        """
        from repro.utils.arrays import decode_array

        check_checkpoint_version(document)
        try:
            setup = document["state"]["setup"]
            prior = CategoricalDistribution(decode_array(setup["prior"]))
            config = OptRRConfig(**setup["config"])
            n_records = int(setup["n_records"])
        except KeyError as exc:
            raise ValidationError(
                f"unusable optrr checkpoint: missing field {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"unusable optrr checkpoint: {exc}") from exc
        return cls(prior, n_records, config)

    # -- internals -----------------------------------------------------------
    def _baseline_seed_population(self, rng: np.random.Generator) -> Population | None:
        """Warm-start population: Warner-family matrices (bound-repaired when
        a ``delta`` is configured), evaluated like any other candidates.

        Warner matrices are ordinary points of the search space; starting the
        optimal set Ω from the classic front and improving on it reproduces
        the behaviour the paper reaches after 20 000 random-start generations
        within the few hundred generations this reproduction runs by default.
        """
        config = self.config
        if config.baseline_seeds <= 0:
            return None
        from repro.rr.schemes import warner_stack

        # Sweep the full Warner family, p in [0, 1] (the same grid as the
        # baseline comparison); p below 1/n produces the "anti-diagonal"
        # branch that matters at the high-privacy end of the front.
        stack = warner_stack(
            self.prior.n_categories, np.linspace(0.0, 1.0, config.baseline_seeds)
        )
        return self._problem.evaluate_population(self._problem.repair_stack(stack))

    def _make_offspring(
        self, archive: Population, rng: np.random.Generator, generation: int
    ) -> np.ndarray:
        """Mating selection, crossover, mutation and bound repair, producing
        the next population as a ``(population_size, n, n)`` stack.

        Mating selection reuses the fitness stored by this generation's
        environmental selection (the generation stamp guarantees freshness) —
        the list-based loop redundantly re-assigned SPEA2 fitness to the
        archive here every generation.
        """
        config = self.config
        problem = self._problem
        fitness = archive.require_fresh_fitness(generation)
        parents = binary_tournament_indices(fitness, config.population_size, rng)
        # Pair parent 2k with parent 2k + 1 (the last odd one out with parent
        # 0) and gather every pair straight into the interleaved children
        # stack: row 2k holds child a, row 2k + 1 child b of pair k.
        pairs = np.arange(0, parents.size, 2)
        mates = np.empty(2 * pairs.size, dtype=np.intp)
        mates[0::2] = parents[pairs]
        mates[1::2] = parents[(pairs + 1) % parents.size]
        children = archive.genomes[mates]
        child_a, child_b = children[0::2], children[1::2]
        crossed = rng.random(size=pairs.size) < config.crossover_rate
        if crossed.any():
            child_a[crossed], child_b[crossed] = problem.crossover_stack(
                child_a[crossed], child_b[crossed], rng
            )
        children = children[: config.population_size]
        mutated = rng.random(size=children.shape[0]) < config.mutation_rate
        if mutated.any():
            children[mutated] = problem.mutate_stack(children[mutated], rng)
        return problem.repair_stack(children)


class _OptRRSteppable(SteppableOptimization):
    """The OptRR generation loop decomposed for the stepwise driver.

    Holds the evolving state (population, archive, optimal set Ω) between
    :meth:`step` calls; the variation/selection internals stay on
    :class:`OptRROptimizer`.  The RNG draw order is identical to the former
    monolithic ``run()`` loop, so fixed-seed trajectories are unchanged.
    """

    algorithm_name = "optrr"

    def __init__(self, optimizer: OptRROptimizer) -> None:
        self._optimizer = optimizer
        self._problem = optimizer.problem
        self._config = optimizer.config
        self.population: Population | None = None
        self.archive: Population | None = None
        self.optimal_set: OptimalSet | None = None
        # The workload identity is immutable; cache its serializations so
        # per-generation checkpoints don't recompute them.
        self._fingerprint: str | None = None
        self._setup_document: dict | None = None

    def setup(self, rng: np.random.Generator) -> None:
        optimizer = self._optimizer
        config = self._config
        population = self._problem.initial_population_soa(config.population_size, rng)
        baseline = optimizer._baseline_seed_population(rng)
        optimal_set = OptimalSet(config.optimal_set_size)
        optimal_set.offer_population(population)
        # The full baseline sweep goes straight into Ω (O(1) per matrix); only
        # a thin, evenly spaced subset joins the evolving population so the
        # per-generation selection cost stays bounded.
        if baseline is not None:
            optimal_set.offer_population(baseline)
            stride = max(1, baseline.size // 25)
            population = Population.concat(
                population, baseline.take(np.arange(0, baseline.size, stride))
            )
        self.population = population
        self.archive = None
        self.optimal_set = optimal_set

    def step(self, rng: np.random.Generator, generation: int) -> StepOutcome:
        optimizer = self._optimizer
        config = self._config
        problem = self._problem
        optimal_set = self.optimal_set
        # 1-2. Fitness assignment + environmental selection on Q_t + V_t.
        # The pairwise distance matrix is computed once and shared between
        # the density estimator and (via slicing) archive truncation.
        union = (
            self.population
            if self.archive is None
            else Population.concat(self.population, self.archive)
        )
        distances = pairwise_distances(union.objectives)
        _, _, fitness = spea2_fitness_from_arrays(
            union.objectives, union.feasible, config.density_k, distances=distances
        )
        selected = environmental_selection_indices(
            fitness, config.archive_size, distances=distances
        )
        archive = union.take(selected)
        archive.set_fitness(fitness[selected], generation)
        # 3-5. Mating selection, crossover, mutation, bound repair — the
        # whole offspring generation moves as one (B, n, n) stack.
        population = problem.evaluate_population(
            optimizer._make_offspring(archive, rng, generation)
        )
        # 6. Update the three sets: Ω absorbs the new generation, and the
        # archive/population are refreshed with Ω's best matrices for the
        # privacy levels they already occupy.
        updates = optimal_set.offer_population(population)
        updates += optimal_set.offer_population(archive)
        optimal_set.refresh(population)
        optimal_set.refresh(archive)
        self.population = population
        self.archive = archive
        return StepOutcome(archive_updates=updates, n_evaluations=problem.n_evaluations)

    def finish(self, generation: int) -> OptimizationResult:
        problem = self._problem
        members = self.optimal_set.members()
        if members is None:
            # Ω never accepted a bound-feasible matrix (possible only with an
            # extremely tight delta): the result is an empty front.
            front = spectrum = problem.population_individual(self.population, np.arange(0))
        else:
            # The spectrum is the occupied slots, in slot order, as rows of
            # Ω's own (read-only, no longer changing) genome array; the front
            # is the subset no other member dominates.
            slots = np.flatnonzero(members.feasible)
            spectrum = problem.population_individual(members, slots)
            front = spectrum.take(non_dominated_indices(members.objectives[slots]))
        return OptimizationResult(
            front=front,
            spectrum=spectrum,
            n_generations=generation + 1,
            n_evaluations=problem.n_evaluations,
        )

    def setup_fingerprint(self) -> str:
        if self._fingerprint is not None:
            return self._fingerprint
        config = asdict(self._config)
        # Stopping-rule and seeding fields are not workload identity: a
        # checkpoint may legitimately resume under an extended budget.
        for key in ("n_generations", "stagnation_patience", "seed"):
            config.pop(key, None)
        from repro.utils.arrays import encode_array

        self._fingerprint = workload_fingerprint(
            {
                "algorithm": self.algorithm_name,
                "prior": encode_array(self._optimizer.prior.probabilities),
                "n_records": self._optimizer.n_records,
                "config": config,
            }
        )
        return self._fingerprint

    def state_document(self) -> dict:
        from repro.utils.arrays import encode_array

        if self._setup_document is None:
            self._setup_document = {
                "prior": encode_array(self._optimizer.prior.probabilities),
                "n_records": self._optimizer.n_records,
                "config": asdict(self._config),
            }
        return {
            # "setup" is read by OptRROptimizer.from_checkpoint (which must
            # rebuild the optimizer *before* a restore_state target exists),
            # not by restore_state itself — an intentional asymmetry.
            "setup": self._setup_document,  # repro-lint: allow[checkpoint-symmetry]
            "problem": self._problem.counters_document(),
            "population": population_to_document(self.population),
            "archive": (
                population_to_document(self.archive) if self.archive is not None else None
            ),
            "optimal_set": self.optimal_set.state_document(),
        }

    def restore_state(self, document: dict) -> None:
        self._problem.restore_counters(document["problem"])
        population = population_from_document(document["population"])
        self._check_genomes(population.genomes, "population")
        # Checkpoints are written after a generation, so the archive exists.
        archive = population_from_document(document["archive"])
        self._check_genomes(archive.genomes, "archive")
        optimal_set = OptimalSet(self._config.optimal_set_size)
        optimal_set.restore_state(document["optimal_set"])
        members = optimal_set.members()
        if members is not None:
            self._check_genomes(members.genomes[members.feasible], "optimal set")
            if members.metadata.keys() != population.metadata.keys():
                raise ValidationError(
                    "checkpointed optimal set metadata columns differ from the population's"
                )
        self.population, self.archive, self.optimal_set = population, archive, optimal_set

    def _check_genomes(self, genomes: np.ndarray, name: str) -> None:
        """Checkpointed genomes must be finite column-stochastic ``n x n``
        matrices for this problem's ``n``."""
        n = self._problem.n_categories
        if check_stochastic_stack(genomes, f"checkpointed {name} genomes").shape[1:] != (n, n):
            raise ValidationError(f"checkpointed {name} genomes must be {n} x {n} matrices")