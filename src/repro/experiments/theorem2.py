"""Theorem 2: the Warner, UP and FRAPP solution sets are identical.

The experiment sweeps all three families over matched parameter grids,
verifies that every UP / FRAPP matrix equals the Warner matrix with the
corresponding retention probability, and confirms that the resulting
(privacy, utility) solution sets coincide.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import ParetoFront
from repro.analysis.report import format_paper_vs_measured
from repro.data.synthetic import normal_distribution
from repro.experiments.base import ExperimentResult, ExperimentSpec
from repro.experiments.registry import register_experiment
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.family import FrappFamily, UniformPerturbationFamily
from repro.rr.schemes import warner_equivalent_p, warner_matrix

N_CATEGORIES = 10
N_RECORDS = 10_000
N_POINTS = 201


def run_theorem2(*, seed: int = 0, n_categories: int = N_CATEGORIES) -> ExperimentResult:
    """Verify Theorem 2 numerically."""
    prior = normal_distribution(n_categories)
    evaluator = MatrixEvaluator(prior, N_RECORDS, delta=None)

    # 1. Matrix-level equivalence: every UP / FRAPP matrix is a Warner matrix.
    up_family = UniformPerturbationFamily(n_categories)
    frapp_family = FrappFamily(n_categories)
    max_matrix_gap = 0.0
    for q in up_family.parameter_grid(51):
        p = warner_equivalent_p(n_categories, q=float(q))
        gap = np.abs(
            up_family.matrix(float(q)).probabilities - warner_matrix(n_categories, p).probabilities
        ).max()
        max_matrix_gap = max(max_matrix_gap, float(gap))
    for gamma in frapp_family.parameter_grid(51):
        p = warner_equivalent_p(n_categories, gamma=float(gamma))
        gap = np.abs(
            frapp_family.matrix(float(gamma)).probabilities
            - warner_matrix(n_categories, p).probabilities
        ).max()
        max_matrix_gap = max(max_matrix_gap, float(gap))

    # 2. Solution-set equivalence: on a matched grid of induced diagonal
    # values, the three schemes yield identical (privacy, utility) solutions.
    evaluator_points: dict[str, list[tuple[float, float]]] = {
        "warner": [],
        "uniform-perturbation": [],
        "frapp": [],
    }
    max_objective_gap = 0.0
    diagonals = np.linspace(1.0 / n_categories + 1e-6, 1.0 - 1e-6, N_POINTS)
    for diagonal in diagonals:
        p = float(diagonal)
        q = (diagonal * n_categories - 1.0) / (n_categories - 1.0)
        gamma = diagonal * (n_categories - 1.0) / (1.0 - diagonal)
        matched = {
            "warner": warner_matrix(n_categories, p),
            "uniform-perturbation": up_family.matrix(float(q)),
            "frapp": frapp_family.matrix(float(gamma)),
        }
        evaluations = {name: evaluator.evaluate(matrix) for name, matrix in matched.items()}
        reference = evaluations["warner"]
        for name, evaluation in evaluations.items():
            evaluator_points[name].append((evaluation.privacy, evaluation.utility))
            max_objective_gap = max(
                max_objective_gap,
                abs(evaluation.privacy - reference.privacy),
                abs(evaluation.utility - reference.utility),
            )

    fronts = {
        name: ParetoFront.from_points(name, pairs) for name, pairs in evaluator_points.items()
    }

    reproduced = max_matrix_gap < 1e-9 and max_objective_gap < 1e-9
    measured = (
        f"max matrix element gap {max_matrix_gap:.2e}; max objective gap "
        f"{max_objective_gap:.2e} over {N_POINTS} matched parameter values"
    )
    summary = (
        format_paper_vs_measured(
            "thm2",
            "the Warner, UP and FRAPP schemes generate identical solution sets",
            measured,
            reproduced,
        ),
    )
    return ExperimentResult(
        experiment_id="thm2",
        fronts=fronts,
        comparison=None,
        reproduced=reproduced,
        summary=summary,
        metrics={"max_matrix_gap": max_matrix_gap, "max_front_gap": max_objective_gap},
    )


register_experiment(
    ExperimentSpec(
        experiment_id="thm2",
        paper_artifact="Theorem 2",
        description="Warner / UP / FRAPP parameter sweeps produce the identical solution set",
        paper_claim="the solution sets of the Warner, UP and FRAPP schemes are identical",
        parameters={"n_categories": N_CATEGORIES, "n_records": N_RECORDS},
        runner=run_theorem2,
        accepted_overrides=("n_categories",),
    )
)
