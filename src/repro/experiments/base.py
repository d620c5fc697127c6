"""Experiment specification and result objects.

Every paper figure/fact is described by an :class:`ExperimentSpec` — what
workload it runs, with which parameters, and which qualitative claim of the
paper it checks — and produces an :class:`ExperimentResult` carrying the
measured fronts, the comparison summary and the reproduction verdict.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.analysis.compare import FrontComparison
from repro.core.result import ParetoFront
from repro.exceptions import ExperimentError, ValidationError

#: Override keys accepted by the front-comparison experiments (the common
#: case); specs with a different workload declare their own tuple.
DEFAULT_ACCEPTED_OVERRIDES = ("n_generations", "population_size", "low_fidelity_fraction")


def environment_override_defaults() -> dict[str, object]:
    """Current values of every override key whose runner-level default comes
    from the environment.

    This is the single registry the campaign planner uses to materialize
    unset budget overrides into its cache keys — add any new
    environment-defaulted override key here so cached campaign results can
    never be replayed across a changed environment.
    """
    return {
        "n_generations": default_generations(),
        "population_size": default_population(),
        "low_fidelity_fraction": default_low_fidelity_fraction(),
    }

#: Environment variable that overrides the number of optimizer generations in
#: every experiment (the paper runs 20 000; CI and benchmarks use far fewer).
GENERATIONS_ENV_VAR = "REPRO_GENERATIONS"

#: Environment variable that overrides the optimizer population/archive size.
POPULATION_ENV_VAR = "REPRO_POPULATION"

#: Environment variable that overrides the optimizer's low-fidelity fraction
#: (1.0, the default, keeps the exact single-fidelity evaluation path).
LOW_FIDELITY_ENV_VAR = "REPRO_LOW_FIDELITY"


def default_generations(fallback: int = 400) -> int:
    """Number of generations to run, honouring the environment override."""
    value = _environment_number(GENERATIONS_ENV_VAR, int, fallback)
    if value <= 0:
        raise ValidationError(f"{GENERATIONS_ENV_VAR} must be positive, got {value}")
    return value


def default_population(fallback: int = 40) -> int:
    """Population/archive size to use, honouring the environment override."""
    value = _environment_number(POPULATION_ENV_VAR, int, fallback)
    if value <= 1:
        raise ValidationError(f"{POPULATION_ENV_VAR} must be at least 2, got {value}")
    return value


def default_low_fidelity_fraction(fallback: float = 1.0) -> float:
    """Low-fidelity fraction to use, honouring the environment override."""
    value = _environment_number(LOW_FIDELITY_ENV_VAR, float, fallback)
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"{LOW_FIDELITY_ENV_VAR} must lie in (0, 1], got {value}")
    return value


def _environment_number(name: str, kind: type, fallback):
    """The variable parsed with ``kind``, or ``fallback`` when it is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return kind(raw)
    except ValueError as exc:
        raise ValidationError(f"{name} is not a valid {kind.__name__}: {raw!r}") from exc


@dataclass(frozen=True)
class ExperimentSpec:
    """Static description of one experiment.

    Attributes
    ----------
    experiment_id:
        Short identifier (``fig4a``, ``fig5c``, ``thm2``, ...).
    paper_artifact:
        Which table/figure of the paper it reproduces.
    description:
        One-line description of the workload.
    paper_claim:
        The qualitative claim of the paper this experiment checks.
    parameters:
        Workload parameters (distribution, delta, N, ...).
    runner:
        Callable executing the experiment; receives a seed and keyword
        overrides and returns an :class:`ExperimentResult`.
    accepted_overrides:
        Override keys the runner understands.  :meth:`run` validates against
        this tuple instead of forwarding blindly, so an unsupported override
        raises a clear :class:`~repro.exceptions.ExperimentError` rather than
        a raw ``TypeError`` from deep inside the runner.
    """

    experiment_id: str
    paper_artifact: str
    description: str
    paper_claim: str
    parameters: Mapping[str, object]
    runner: Callable[..., "ExperimentResult"] = field(repr=False)
    accepted_overrides: tuple[str, ...] = DEFAULT_ACCEPTED_OVERRIDES

    def validate_overrides(self, overrides: Mapping[str, object]) -> None:
        """Raise :class:`ExperimentError` when an override key is unknown."""
        unknown = sorted(set(overrides) - set(self.accepted_overrides))
        if unknown:
            accepted = ", ".join(repr(key) for key in self.accepted_overrides) or "(none)"
            raise ExperimentError(
                f"experiment {self.experiment_id!r} does not accept override(s) "
                f"{', '.join(repr(key) for key in unknown)}; accepted keys: {accepted}"
            )

    def filter_overrides(self, overrides: Mapping[str, object]) -> dict[str, object]:
        """The subset of ``overrides`` this experiment accepts.

        Used by the campaign runner, where one global override set is applied
        to a heterogeneous grid of experiments: each experiment receives (and
        is cached under) exactly the overrides it understands.
        """
        return {
            key: value for key, value in overrides.items() if key in self.accepted_overrides
        }

    def run(self, *, seed: int = 0, **overrides) -> "ExperimentResult":
        """Execute the experiment after validating the overrides."""
        self.validate_overrides(overrides)
        return self.runner(seed=seed, **overrides)


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes
    ----------
    experiment_id:
        Identifier of the experiment that produced this result.
    fronts:
        The measured Pareto fronts keyed by scheme name (e.g. ``"optrr"``,
        ``"warner"``).
    comparison:
        Front comparison of the OptRR front against the baseline front (None
        for experiments that are not front comparisons, e.g. Fact 1).
    reproduced:
        Whether the paper's qualitative claim holds in this run.
    summary:
        Human-readable summary lines (printed by the benchmark harness).
    metrics:
        Free-form numeric results (search-space sizes, privacy ranges, ...).
    """

    experiment_id: str
    fronts: Mapping[str, ParetoFront] = field(default_factory=dict)
    comparison: FrontComparison | None = None
    reproduced: bool = True
    summary: tuple[str, ...] = ()
    metrics: Mapping[str, float] = field(default_factory=dict)

    def summary_text(self) -> str:
        """The summary lines joined into one printable block."""
        return "\n".join(self.summary)
