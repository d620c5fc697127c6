"""Shared machinery for the Pareto-front-comparison experiments.

Every figure in the paper's evaluation compares the OptRR front against the
Warner-family front (which, by Theorem 2, also represents UP and FRAPP) on a
specific prior and a specific privacy bound.  :func:`run_front_comparison`
implements that protocol once; the figure modules supply the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.compare import FrontComparison, compare_fronts
from repro.analysis.report import format_front_table, format_paper_vs_measured
from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.result import OptimizationResult, ParetoFront
from repro.data.distribution import CategoricalDistribution
from repro.experiments.base import (
    ExperimentResult,
    default_generations,
    default_low_fidelity_fraction,
    default_population,
)
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.family import WarnerFamily


@dataclass(frozen=True)
class FrontComparisonWorkload:
    """Workload description of a front-comparison experiment.

    Attributes
    ----------
    experiment_id:
        Identifier of the experiment (``fig4a`` etc.).
    prior:
        The original data distribution ``P(X)``.
    n_records:
        Number of records ``N``.
    delta:
        Worst-case privacy bound for the experiment.
    paper_claim:
        Qualitative claim printed next to the measured result.
    expect_wider_range:
        Whether the paper claims OptRR reaches strictly lower privacy than
        Warner for this workload (true everywhere except Figure 5(b), where
        the ranges coincide for the uniform prior).
    """

    experiment_id: str
    prior: CategoricalDistribution
    n_records: int
    delta: float
    paper_claim: str
    expect_wider_range: bool = True


def optimize_front(
    prior: CategoricalDistribution,
    n_records: int,
    delta: float | None,
    *,
    seed: int = 0,
    n_generations: int | None = None,
    population_size: int | None = None,
    low_fidelity_fraction: float | None = None,
) -> tuple[ParetoFront, OptimizationResult]:
    """Run OptRR on the workload and return its Pareto front."""
    config = OptRRConfig(
        population_size=population_size or default_population(),
        archive_size=population_size or default_population(),
        n_generations=n_generations or default_generations(),
        delta=delta,
        low_fidelity_fraction=(
            low_fidelity_fraction
            if low_fidelity_fraction is not None
            else default_low_fidelity_fraction()
        ),
        seed=seed,
    )
    optimizer = OptRROptimizer(prior, n_records, config)
    result = optimizer.run()
    return result.front, result


def warner_front(
    prior: CategoricalDistribution,
    n_records: int,
    delta: float | None,
    *,
    n_points: int = 1001,
) -> ParetoFront:
    """Baseline front: the 1001-step Warner sweep with bound filtering."""
    family = WarnerFamily(prior.n_categories)
    return ParetoFront.from_family(family, prior, n_records, delta=delta, n_points=n_points)


def run_front_comparison(
    workload: FrontComparisonWorkload,
    *,
    seed: int = 0,
    n_generations: int | None = None,
    population_size: int | None = None,
    low_fidelity_fraction: float | None = None,
) -> ExperimentResult:
    """Run one figure-style comparison of OptRR against the Warner baseline."""
    optrr, optimization = optimize_front(
        workload.prior,
        workload.n_records,
        workload.delta,
        seed=seed,
        n_generations=n_generations,
        population_size=population_size,
        low_fidelity_fraction=low_fidelity_fraction,
    )
    warner = warner_front(workload.prior, workload.n_records, workload.delta)
    comparison = compare_fronts(optrr, warner)
    reproduced = _claim_holds(comparison, workload.expect_wider_range)
    measured = _measured_text(comparison)
    summary = (
        format_paper_vs_measured(workload.experiment_id, workload.paper_claim, measured, reproduced),
        format_front_table(warner),
        format_front_table(optrr),
    )
    metrics = {
        "optrr_min_privacy": comparison.candidate_privacy_range[0],
        "optrr_max_privacy": comparison.candidate_privacy_range[1],
        "warner_min_privacy": comparison.baseline_privacy_range[0],
        "warner_max_privacy": comparison.baseline_privacy_range[1],
        "extra_privacy_range": comparison.extra_privacy_range,
        "mean_utility_ratio": comparison.mean_utility_ratio,
        "optrr_hypervolume": comparison.hypervolume_candidate,
        "warner_hypervolume": comparison.hypervolume_baseline,
        "n_generations": float(optimization.n_generations),
        "n_evaluations": float(optimization.n_evaluations),
    }
    return ExperimentResult(
        experiment_id=workload.experiment_id,
        fronts={"optrr": optrr, "warner": warner},
        comparison=comparison,
        reproduced=reproduced,
        summary=summary,
        metrics=metrics,
    )


def _claim_holds(comparison: FrontComparison, expect_wider_range: bool) -> bool:
    """The paper's qualitative claim: OptRR at least matches Warner's utility
    in the shared range (wins plus ties, never loses badly) and, where
    claimed, covers a wider privacy range."""
    probes = comparison.candidate_wins + comparison.baseline_wins + comparison.ties
    if probes == 0:
        not_worse = True
    else:
        not_worse = comparison.baseline_wins <= max(1, int(0.1 * probes))
    range_ok = comparison.extra_privacy_range >= -1e-6
    if expect_wider_range:
        range_ok = comparison.covers_wider_privacy_range or abs(comparison.extra_privacy_range) < 5e-3
    return bool(not_worse and range_ok)


def _measured_text(comparison: FrontComparison) -> str:
    return (
        f"OptRR privacy range [{comparison.candidate_privacy_range[0]:.3f}, "
        f"{comparison.candidate_privacy_range[1]:.3f}] vs Warner "
        f"[{comparison.baseline_privacy_range[0]:.3f}, "
        f"{comparison.baseline_privacy_range[1]:.3f}]; "
        f"utility ratio (Warner/OptRR) {comparison.mean_utility_ratio:.2f}; "
        f"wins/losses/ties {comparison.candidate_wins}/{comparison.baseline_wins}/"
        f"{comparison.ties}"
    )


def evaluator_for(workload: FrontComparisonWorkload) -> MatrixEvaluator:
    """The privacy/utility evaluator for a workload (used by ablations)."""
    return MatrixEvaluator(workload.prior, workload.n_records, workload.delta)


def empirical_front_mse(
    front: ParetoFront,
    prior: CategoricalDistribution,
    n_records: int,
    *,
    estimator_method: str = "iterative",
    n_trials: int = 3,
    max_points: int = 60,
    seed: int = 0,
) -> ParetoFront:
    """Re-measure a front's utility empirically (Figure 5(d) methodology).

    For every matrix on the front (subsampled to at most ``max_points`` so
    dense baseline sweeps stay affordable), the original data is sampled from
    the prior, disguised with the matrix, the distribution is re-estimated
    with the named estimator, and the measured MSE replaces the closed-form
    utility.  A front without matrices gives an empty front.
    """
    from repro.rr.estimation import IterativeEstimator, InversionEstimator
    from repro.rr.randomize import RandomizedResponse

    rng = np.random.default_rng(seed)
    if estimator_method == "iterative":
        estimator = IterativeEstimator(max_iterations=2000, tolerance=1e-7)
    else:
        estimator = InversionEstimator()
    pairs = []
    truth = prior.probabilities
    rows = range(len(front) if front.stack is not None else 0)
    if len(rows) > max_points:
        step = len(rows) / max_points
        rows = [int(index * step) for index in range(max_points)]
    for row in rows:
        matrix = front[row].matrix
        mechanism = RandomizedResponse(matrix)
        errors = []
        for _ in range(n_trials):
            original = prior.sample(n_records, seed=rng)
            disguised = mechanism.randomize_codes(original, seed=rng)
            estimate = estimator.estimate_from_codes(disguised, matrix)
            errors.append(float(np.mean((estimate.probabilities - truth) ** 2)))
        pairs.append((front.privacy[row], float(np.mean(errors))))
    return ParetoFront.from_points(f"{front.name}-empirical", pairs, keep_dominated=True)
