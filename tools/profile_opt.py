#!/usr/bin/env python
"""Profile the OptRR generation loop and print its hotspots.

The entry point future perf PRs start from: runs ``OptRROptimizer.run()``
(or the frozen pre-PR reference loop) under ``cProfile`` at a configurable
population/generation budget and prints wall time plus the top generation-
loop hotspots.

Usage (from the repository root)::

    PYTHONPATH=src python tools/profile_opt.py --population 200 --generations 50
    PYTHONPATH=src python tools/profile_opt.py --engine reference --top 15
    PYTHONPATH=src python tools/profile_opt.py --sort cumulative
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, default=40, help="population/archive size")
    parser.add_argument("--generations", type=int, default=50, help="generation budget")
    parser.add_argument("--categories", type=int, default=10, help="domain size n")
    parser.add_argument("--records", type=int, default=10_000, help="dataset size N")
    parser.add_argument("--delta", type=float, default=0.8, help="privacy bound (0 disables)")
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    parser.add_argument(
        "--engine",
        choices=("array", "reference"),
        default="array",
        help="array = the SoA loop; reference = the frozen pre-PR list loop",
    )
    parser.add_argument("--top", type=int, default=20, help="number of hotspots to print")
    parser.add_argument(
        "--sort",
        choices=("tottime", "cumulative", "ncalls"),
        default="tottime",
        help="pstats sort key",
    )
    arguments = parser.parse_args()

    from repro.core.config import OptRRConfig
    from repro.core.optimizer import OptRROptimizer
    from repro.data.synthetic import normal_distribution

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.oracles.optrr_loop import reference_optrr_run

    prior = normal_distribution(arguments.categories)
    config = OptRRConfig(
        population_size=arguments.population,
        archive_size=arguments.population,
        n_generations=arguments.generations,
        delta=arguments.delta or None,
        seed=arguments.seed,
    )

    if arguments.engine == "array":
        runner = lambda: OptRROptimizer(prior, arguments.records, config).run()  # noqa: E731
    else:
        runner = lambda: reference_optrr_run(prior, arguments.records, config)  # noqa: E731

    # Untraced wall-clock first (the profiler roughly doubles the runtime).
    start = time.perf_counter()
    result = runner()
    wall = time.perf_counter() - start
    print(
        f"{arguments.engine} engine: n={arguments.categories}, "
        f"population={arguments.population}, generations={arguments.generations}, "
        f"delta={arguments.delta}"
    )
    print(
        f"wall time {wall:.3f} s  ({result.n_evaluations} evaluations, "
        f"front size {len(result)})"
    )
    print()

    profile = cProfile.Profile()
    profile.enable()
    runner()
    profile.disable()
    stats = pstats.Stats(profile)
    stats.sort_stats(arguments.sort).print_stats(arguments.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
