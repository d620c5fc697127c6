"""OptRR: Optimizing Randomized Response Schemes for Privacy-Preserving Data Mining.

A production-quality reproduction of Huang & Du (ICDE 2008).  The library
provides:

* the randomized-response substrate (RR matrices, classic schemes, the
  disguise mechanism, distribution estimators) — :mod:`repro.rr`;
* privacy and utility quantification based on estimation theory —
  :mod:`repro.metrics`;
* the evolutionary multi-objective optimization substrate on genome stacks
  (the SPEA2 array kernels, the checkpointing driver) — :mod:`repro.emoo`;
* the OptRR optimizer that searches for Pareto-optimal RR matrices, the
  package's one optimizer — :mod:`repro.core` (the NSGA-II and weighted-sum
  ablation baselines live in ``benchmarks/baselines``);
* data generators matching the paper's workloads — :mod:`repro.data`;
* Pareto-front analysis and comparison — :mod:`repro.analysis`;
* privacy-preserving mining applications — :mod:`repro.mining`;
* an experiment harness reproducing every figure — :mod:`repro.experiments`.

Quickstart
----------
>>> from repro import OptRRConfig, OptRROptimizer, normal_distribution
>>> prior = normal_distribution(10)
>>> config = OptRRConfig(n_generations=50, delta=0.8, seed=0)
>>> result = OptRROptimizer(prior, n_records=10_000, config=config).run()
>>> front = result.front  # columns: privacy, utility, max_posterior, matrices
>>> bool((front.privacy[1:] > front.privacy[:-1]).all())
True
>>> point = result.best_matrix_for_privacy(0.5)  # one FrontRow, built on demand
>>> point.matrix.n_categories
10
"""

import importlib
from typing import Any

#: Where each top-level name is defined.  Importing ``repro`` loads none of
#: these modules; a name resolves (PEP 562) on first access, so a command
#: only pays for the modules it actually runs.
_EXPORTS = {
    "CategoricalDataset": "repro.data.dataset",
    "CategoricalDistribution": "repro.data.distribution",
    "FrontRow": "repro.core.result",
    "InversionEstimator": "repro.rr.estimation",
    "IterativeEstimator": "repro.rr.estimation",
    "MatrixEvaluator": "repro.metrics.evaluation",
    "OptRRConfig": "repro.core.config",
    "OptRROptimizer": "repro.core.optimizer",
    "OptimalSet": "repro.core.archive",
    "OptimizationResult": "repro.core.result",
    "ParetoFront": "repro.core.result",
    "RRMatrix": "repro.rr.matrix",
    "RRMatrixProblem": "repro.core.problem",
    "RandomizedResponse": "repro.rr.randomize",
    "adult_attribute_distribution": "repro.data.adult",
    "compare_fronts": "repro.analysis.compare",
    "frapp_matrix": "repro.rr.schemes",
    "gamma_distribution": "repro.data.synthetic",
    "load_adult_like": "repro.data.adult",
    "normal_distribution": "repro.data.synthetic",
    "rr_matrix_combinations": "repro.core.search_space",
    "sample_dataset": "repro.data.synthetic",
    "uniform_distribution": "repro.data.synthetic",
    "uniform_perturbation_matrix": "repro.rr.schemes",
    "warner_matrix": "repro.rr.schemes",
    "zipf_distribution": "repro.data.synthetic",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
