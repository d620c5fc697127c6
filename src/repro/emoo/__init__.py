"""Evolutionary multi-objective optimization (EMOO) substrate.

The array kernels of SPEA2 (fitness, density, environmental selection and
truncation — the algorithm the paper builds on, assembled into OptRR by
``repro.core``), the stepwise checkpointing driver with its stopping rule,
Pareto dominance utilities and front-quality indicators.

The kernels work on genome stacks and structure-of-arrays
:class:`~repro.emoo.population.Population` objects; the only problem in the
package is :class:`repro.core.problem.RRMatrixProblem`, with ``(P, n, n)``
RR-matrix stacks.  OptRR is the package's one optimizer; the NSGA-II and
weighted-sum ablation baselines live in ``benchmarks/baselines`` and run on
the same public pieces.
"""
