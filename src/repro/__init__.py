"""OptRR: Optimizing Randomized Response Schemes for Privacy-Preserving Data Mining.

A production-quality reproduction of Huang & Du (ICDE 2008).  The library
provides:

* the randomized-response substrate (RR matrices, classic schemes, the
  disguise mechanism, distribution estimators) — :mod:`repro.rr`;
* privacy and utility quantification based on estimation theory —
  :mod:`repro.metrics`;
* the evolutionary multi-objective optimization substrate on genome stacks
  (the SPEA2 array kernels, the checkpointing driver, multi-fidelity
  scheduling) — :mod:`repro.emoo`;
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

from repro.core import (
    OptRRConfig,
    OptRROptimizer,
    OptimalSet,
    OptimizationResult,
    RRMatrixProblem,
    rr_matrix_combinations,
)
from repro.data import (
    CategoricalDataset,
    CategoricalDistribution,
    adult_attribute_distribution,
    gamma_distribution,
    load_adult_like,
    normal_distribution,
    sample_dataset,
    uniform_distribution,
    zipf_distribution,
)
from repro.metrics import (
    MatrixEvaluator,
    privacy_score,
    utility_score,
)
from repro.rr import (
    InversionEstimator,
    IterativeEstimator,
    RRMatrix,
    RandomizedResponse,
    frapp_matrix,
    uniform_perturbation_matrix,
    warner_matrix,
)
from repro.analysis import FrontRow, ParetoFront, compare_fronts

__version__ = "1.0.0"

__all__ = [
    "CategoricalDataset",
    "CategoricalDistribution",
    "FrontRow",
    "InversionEstimator",
    "IterativeEstimator",
    "MatrixEvaluator",
    "OptRRConfig",
    "OptRROptimizer",
    "OptimalSet",
    "OptimizationResult",
    "ParetoFront",
    "RRMatrix",
    "RRMatrixProblem",
    "RandomizedResponse",
    "adult_attribute_distribution",
    "compare_fronts",
    "frapp_matrix",
    "gamma_distribution",
    "load_adult_like",
    "normal_distribution",
    "privacy_score",
    "rr_matrix_combinations",
    "sample_dataset",
    "uniform_distribution",
    "uniform_perturbation_matrix",
    "utility_score",
    "warner_matrix",
    "zipf_distribution",
    "__version__",
]
