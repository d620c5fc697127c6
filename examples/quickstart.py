"""Quickstart: optimize RR matrices for a categorical attribute.

This example walks through the core OptRR workflow end to end:

1. define the prior distribution of the sensitive attribute;
2. run the OptRR optimizer to obtain a set of Pareto-optimal RR matrices;
3. pick a matrix matching a privacy requirement;
4. disguise a dataset with it and reconstruct the original distribution.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    InversionEstimator,
    OptRRConfig,
    OptRROptimizer,
    RandomizedResponse,
    normal_distribution,
    sample_dataset,
)
from repro.analysis.plot import ascii_scatter
from repro.analysis.report import format_front_table


def main() -> None:
    # 1. The sensitive attribute has 10 categories whose probabilities follow
    #    a discretised normal distribution (the paper's synthetic workload).
    prior = normal_distribution(10)
    n_records = 10_000
    print("Prior distribution:", np.round(prior.probabilities, 3))

    # 2. Search for Pareto-optimal RR matrices under a worst-case privacy
    #    bound of delta = 0.8 (no posterior may exceed 0.8).
    config = OptRRConfig(
        population_size=40,
        archive_size=40,
        n_generations=200,
        delta=0.8,
        seed=42,
    )
    optimizer = OptRROptimizer(prior, n_records, config)
    result = optimizer.run()
    front = result.front
    print()
    print(format_front_table(front, max_rows=12))
    print()
    print(ascii_scatter([front], width=64, height=16))

    # 3. Pick the most useful matrix that still guarantees privacy >= 0.5.
    point = result.best_matrix_for_privacy(0.5)
    print()
    print(f"Chosen matrix: privacy={point.privacy:.3f}, "
          f"expected MSE={point.utility:.2e}, max posterior={point.max_posterior:.3f}")

    # 4. Disguise a sampled dataset and reconstruct the distribution.
    dataset = sample_dataset(prior, n_records, name="sensitive", seed=7)
    mechanism = RandomizedResponse(point.matrix)
    disguised = mechanism.randomize_attribute(dataset, "sensitive", seed=8)
    changed = np.mean(disguised.column("sensitive") != dataset.column("sensitive"))
    print(f"Fraction of records whose reported value changed: {changed:.1%}")

    estimate = InversionEstimator().estimate_from_codes(
        disguised.column("sensitive"), point.matrix
    )
    truth = dataset.distribution("sensitive").probabilities
    mse = float(np.mean((estimate.probabilities - truth) ** 2))
    print(f"Reconstruction MSE on this sample: {mse:.2e} "
          f"(closed-form prediction: {point.utility:.2e})")


if __name__ == "__main__":
    main()
