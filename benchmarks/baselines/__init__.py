"""Ablation baselines: optimizers the benchmarks compare OptRR against.

The package ships one optimizer, OptRR (SPEA2 plus the Ω optimal set, in
:mod:`repro.core`).  The ablation bench (``benchmarks/bench_ablation.py``)
also runs the same RR-matrix problem through two alternatives built on the
package's public stack hooks and EMOO kernels:

* :mod:`benchmarks.baselines.nsga2` — NSGA-II on the stepwise driver;
* :mod:`benchmarks.baselines.weighted_sum` — a weighted-sum
  single-objective GA swept over a grid of weights.
"""
