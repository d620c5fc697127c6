"""Configuration of the OptRR optimizer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.utils.validation import check_counter, check_in_unit_interval, check_positive_int


@dataclass(frozen=True)
class OptRRConfig:
    """Hyper-parameters of an OptRR run (Algorithm "Optimization for RR
    Matrices" in Section V-A).

    Parameters
    ----------
    population_size:
        ``N_Q`` — number of offspring matrices generated per generation.
    archive_size:
        ``N_V`` — number of elite matrices kept between generations.
    optimal_set_size:
        ``N_Ω`` — number of privacy-indexed slots in the optimal set; the
        paper sets this much larger than the archive because updating Ω is
        cheap.
    n_generations:
        ``L`` — maximum number of generations (the paper runs 20 000; a few
        hundred already converge to the qualitative front for n = 10).
    stagnation_patience:
        Optional early-stopping patience: stop when Ω receives no update for
        this many consecutive generations (``None`` disables it).
    crossover_rate, mutation_rate:
        Probabilities of applying the column crossover / column mutation.
    mutation_scale:
        Upper bound of the random value added or subtracted by the mutation
        operator.
    delta:
        Worst-case privacy bound (Eq. 9); ``None`` disables the bound.
    density_k:
        Neighbour index for the SPEA2 density estimator (the paper uses 1).
    diagonal_bias:
        Diagonal bias applied to half of the random initial matrices so the
        initial population spans matrices from near-uniform to near-identity.
    baseline_seeds:
        Number of Warner-family matrices (bound-repaired when ``delta`` is
        set) used as a warm start: all of them are offered to the optimal set
        Ω and an evenly spaced subset joins the initial population.  Warner
        matrices are ordinary members of the search space, so seeding them
        only accelerates convergence towards the front the paper reaches
        after 20 000 generations; set to 0 for the paper's purely random
        initialisation.
    seed:
        Random seed for reproducibility: a non-negative int, or ``None``.
    """

    population_size: int = 40
    archive_size: int = 40
    optimal_set_size: int = 1000
    n_generations: int = 300
    stagnation_patience: int | None = None
    crossover_rate: float = 0.9
    mutation_rate: float = 0.5
    mutation_scale: float = 0.3
    delta: float | None = None
    density_k: int = 1
    diagonal_bias: float = 2.0
    baseline_seeds: int = 1001
    seed: int | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.population_size, "population_size")
        check_positive_int(self.archive_size, "archive_size")
        check_positive_int(self.optimal_set_size, "optimal_set_size")
        check_positive_int(self.n_generations, "n_generations")
        if self.stagnation_patience is not None:
            check_positive_int(self.stagnation_patience, "stagnation_patience")
        check_in_unit_interval(self.crossover_rate, "crossover_rate")
        check_in_unit_interval(self.mutation_rate, "mutation_rate")
        if not 0.0 < self.mutation_scale <= 1.0:
            raise ValidationError(
                f"mutation_scale must be in (0, 1], got {self.mutation_scale}"
            )
        if self.delta is not None:
            check_in_unit_interval(self.delta, "delta", inclusive_low=False)
        check_positive_int(self.density_k, "density_k")
        if self.diagonal_bias < 0:
            raise ValidationError("diagonal_bias must be non-negative")
        if self.baseline_seeds < 0:
            raise ValidationError("baseline_seeds must be non-negative")
        if self.population_size < 2:
            raise ValidationError("population_size must be at least 2")
        if self.seed is not None:
            check_counter(self.seed, "seed")

    def with_updates(self, **changes) -> "OptRRConfig":
        """Return a copy of this configuration with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)
