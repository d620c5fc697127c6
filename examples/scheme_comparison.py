"""Compare OptRR against the classic Warner / UP / FRAPP schemes.

Reproduces the methodology of the paper's evaluation on a small budget:
sweep the Warner family (which, by Theorem 2, also represents Uniform
Perturbation and FRAPP), optimize matrices with OptRR for the same workload,
and compare the two Pareto fronts.

Run with::

    python examples/scheme_comparison.py [delta]
"""

from __future__ import annotations

import sys

from repro import OptRRConfig, OptRROptimizer, gamma_distribution
from repro.analysis.compare import compare_fronts
from repro.analysis.front import ParetoFront
from repro.analysis.plot import ascii_scatter
from repro.analysis.report import format_comparison_table
from repro.rr.family import FrappFamily, UniformPerturbationFamily, WarnerFamily


def main(delta: float = 0.75) -> None:
    prior = gamma_distribution(10, alpha=1.0, beta=2.0)
    n_records = 10_000

    # Baseline fronts for the three classic schemes (Theorem 2 predicts they
    # coincide; the printout makes that visible).
    baselines = {}
    for family in (WarnerFamily(10), UniformPerturbationFamily(10), FrappFamily(10)):
        baselines[family.name] = ParetoFront.from_family(
            family, prior, n_records, delta=delta, n_points=501
        )
        low, high = baselines[family.name].privacy_range
        print(f"{family.name:22s}: {len(baselines[family.name]):4d} optimal matrices, "
              f"privacy range [{low:.3f}, {high:.3f}]")

    # OptRR front for the same workload.
    config = OptRRConfig(
        population_size=40, archive_size=40, n_generations=300, delta=delta, seed=1
    )
    result = OptRROptimizer(prior, n_records, config).run()
    optrr = result.front
    low, high = optrr.privacy_range
    print(f"{'optrr':22s}: {len(optrr):4d} optimal matrices, "
          f"privacy range [{low:.3f}, {high:.3f}]")

    print()
    comparison = compare_fronts(optrr, baselines["warner"])
    print(format_comparison_table([comparison]))
    print()
    print(ascii_scatter([optrr, baselines["warner"]], width=70, height=18))
    print()
    if comparison.covers_wider_privacy_range:
        print("OptRR covers a wider privacy range than the classic schemes "
              f"(extra {comparison.extra_privacy_range:.3f} towards low privacy).")
    print(f"Average utility advantage at equal privacy: "
          f"{comparison.mean_utility_ratio:.2f}x lower MSE.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.75)
