"""Ablation benchmarks for the design choices discussed in Section V.

Two design decisions of the paper are made checkable here:

* **EMOO algorithm choice** — the paper selects SPEA2 (with its own
  modifications) over alternatives, and argues that collapsing the two
  objectives into one weighted sum is inadequate.  The ablation runs the same
  RR-matrix problem through the OptRR driver (SPEA2 + Ω), plain NSGA-II and a
  weighted-sum GA (both in ``benchmarks/baselines``) with the same
  evaluation budget and compares the fronts via hypervolume and front size.
* **The optimal set Ω** — the paper keeps a large privacy-indexed archive of
  good matrices evicted from the bounded SPEA2 archive.  The ablation runs
  the optimizer with and without Ω (by shrinking Ω to a single slot) and
  compares the size and coverage of the resulting fronts.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.core.result import ParetoFront
from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.indicators import hypervolume_2d
from repro.experiments.base import default_generations, default_population

# pytest puts benchmarks/ itself on sys.path; the baselines import from the root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.baselines.nsga2 import NSGA2, NSGA2Settings  # noqa: E402
from benchmarks.baselines.weighted_sum import WeightedSumGA, WeightedSumSettings  # noqa: E402

N_RECORDS = 10_000
DELTA = 0.8


def _workload():
    return normal_distribution(10)


def _feasible_points(population) -> list[tuple[float, float]]:
    """(privacy, utility) of the feasible, invertible rows of a population."""
    privacy, utility = population.metadata["privacy"], population.metadata["utility"]
    keep = population.feasible & np.isfinite(utility)
    return list(zip(privacy[keep], utility[keep]))


def _reference_point(fronts: list[np.ndarray]) -> tuple[float, float]:
    stacked = np.vstack(fronts)
    return (float(stacked[:, 0].max()) + 1e-6, float(stacked[:, 1].max()) * 1.1 + 1e-12)


def test_emoo_algorithm_ablation(run_once):
    """OptRR (SPEA2 + Ω) vs NSGA-II vs weighted-sum GA on the same problem."""
    prior = _workload()
    generations = max(50, default_generations() // 4)
    population = default_population()

    def run_all():
        config = OptRRConfig(
            population_size=population,
            archive_size=population,
            n_generations=generations,
            delta=DELTA,
            seed=0,
        )
        optrr_result = OptRROptimizer(prior, N_RECORDS, config).run()
        optrr_front = optrr_result.front

        nsga_problem = RRMatrixProblem(prior, N_RECORDS, delta=DELTA)
        nsga_result = NSGA2(
            nsga_problem,
            NSGA2Settings(population_size=population),
            n_generations=generations,
            seed=0,
        ).run()
        nsga_front = ParetoFront.from_points("nsga2", _feasible_points(nsga_result.front))

        ws_problem = RRMatrixProblem(prior, N_RECORDS, delta=DELTA)
        ws_result = WeightedSumGA(
            ws_problem,
            WeightedSumSettings(
                population_size=population,
                n_generations=max(10, generations // 10),
                n_weights=11,
            ),
            seed=0,
        ).run()
        ws_front = ParetoFront.from_points(
            "weighted-sum", _feasible_points(ws_result.best_per_weight)
        )
        return optrr_front, nsga_front, ws_front

    optrr_front, nsga_front, ws_front = run_once(
        run_all,
        op="emoo_algorithm_ablation",
        params={"population": population, "generations": generations},
    )

    arrays = {
        name: front.as_minimization_array()
        for name, front in (("optrr", optrr_front), ("nsga2", nsga_front),
                            ("weighted-sum", ws_front))
        if not front.is_empty
    }
    reference = _reference_point(list(arrays.values()))
    hypervolumes = {name: hypervolume_2d(array, reference) for name, array in arrays.items()}

    print()
    print("  EMOO ablation (same evaluation budget per algorithm):")
    for name, front in (("optrr", optrr_front), ("nsga2", nsga_front), ("weighted-sum", ws_front)):
        if front.is_empty:
            print(f"    {name:14s}: empty front")
            continue
        low, high = front.privacy_range
        print(f"    {name:14s}: {len(front):4d} points, privacy range "
              f"[{low:.3f}, {high:.3f}], hypervolume {hypervolumes[name]:.3e}")

    # The paper's design choice: the SPEA2-based OptRR front should dominate
    # the weighted-sum front (more points, at least comparable hypervolume).
    assert len(optrr_front) > len(ws_front)
    assert hypervolumes["optrr"] >= hypervolumes.get("weighted-sum", 0.0) * 0.95
    # NSGA-II is a credible alternative; OptRR should at least be comparable.
    assert hypervolumes["optrr"] >= hypervolumes.get("nsga2", 0.0) * 0.8


def test_optimal_set_ablation(run_once):
    """The Ω optimal set enlarges the recovered front at negligible cost."""
    prior = _workload()
    generations = max(50, default_generations() // 4)
    population = default_population()

    def run_both():
        with_omega = OptRROptimizer(
            prior,
            N_RECORDS,
            OptRRConfig(
                population_size=population,
                archive_size=population,
                optimal_set_size=1000,
                n_generations=generations,
                delta=DELTA,
                seed=1,
            ),
        ).run()
        without_omega = OptRROptimizer(
            prior,
            N_RECORDS,
            OptRRConfig(
                population_size=population,
                archive_size=population,
                optimal_set_size=1,  # effectively disables the privacy-indexed store
                n_generations=generations,
                delta=DELTA,
                seed=1,
            ),
        ).run()
        return with_omega, without_omega

    with_omega, without_omega = run_once(
        run_both,
        op="optimal_set_ablation",
        params={"population": population, "generations": generations},
    )
    front_with = with_omega.front
    front_without = without_omega.front

    print()
    print("  Optimal-set (Ω) ablation:")
    for name, front in (("with Ω (1000 slots)", front_with), ("without Ω (1 slot)", front_without)):
        low, high = front.privacy_range
        print(f"    {name:22s}: {len(front):4d} front points, privacy range "
              f"[{low:.3f}, {high:.3f}]")

    # Ω's purpose is breadth: it must recover at least as many distinct
    # trade-off points as the archive alone.
    assert len(front_with) >= len(front_without)
