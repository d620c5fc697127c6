"""Privacy-preserving association mining on RR-disguised survey data.

An analyst wants association rules linking a sensitive survey attribute to
an outcome, but the attribute is disguised on the respondent's device before
submission.  This example optimizes RR matrices with OptRR, feeds the
resulting Pareto front into the end-to-end pipeline (``repro.pipeline``),
and reports how rule precision/recall and distribution reconstruction error
trade off against the privacy each front point provides.

Run with::

    python examples/association_mining.py
"""

from __future__ import annotations

from repro import OptRRConfig, OptRROptimizer
from repro.analysis.report import format_pipeline_table
from repro.data.workload import SENSITIVE_ATTRIBUTE, build_workload
from repro.pipeline import plan_pipeline, run_pipeline, schemes_from_front

DATA = "adult:sex"
N_RECORDS = 12_000


def main() -> None:
    # 1. Optimize RR matrices for the attribute's prior under a privacy
    #    bound (delta = 0.85: no posterior may exceed 0.85).
    workload = build_workload(DATA, N_RECORDS, seed=0)
    config = OptRRConfig(
        population_size=30, archive_size=30, n_generations=150, delta=0.85, seed=1
    )
    optimization = OptRROptimizer(workload.prior, N_RECORDS, config).run()
    low, high = optimization.front.privacy_range
    print(f"Optimized front: {len(optimization)} points, "
          f"privacy range [{low:.3f}, {high:.3f}]")

    # 2. Turn the front into pipeline schemes (thinned to three points) and
    #    mine association rules + distribution error through each of them.
    schemes = schemes_from_front(optimization, max_schemes=3)
    spec = plan_pipeline(
        DATA,
        schemes=schemes,
        miners=["rules", "distribution"],
        seeds=[0, 1],
        n_records=N_RECORDS,
        miner_options={"rules": {"min_support": 0.08, "min_confidence": 0.55}},
    )
    result = run_pipeline(spec, n_jobs=2)

    print()
    print("Rule-mining utility per optimized scheme (cross-seed mean +/- std):")
    print(format_pipeline_table(result.aggregate_document()))

    # 3. Drill into the cells: how many rules survived the harshest disguise?
    harshest = schemes[-1].name
    metrics = result.metrics_for(harshest, "rules", seed=0)
    print()
    print(f"Mined {metrics['n_rules']:.0f} rules through {harshest} "
          f"(clean data yields {metrics['n_clean_rules']:.0f}); "
          f"precision={metrics['precision']:.2f}, recall={metrics['recall']:.2f}")
    reconstruction = result.metrics_for(harshest, "distribution", seed=0)
    print(f"Reconstructed {SENSITIVE_ATTRIBUTE!r} distribution L1 error: "
          f"{reconstruction['l1_error']:.4f}")


if __name__ == "__main__":
    main()
