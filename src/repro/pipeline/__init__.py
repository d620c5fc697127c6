"""Declarative disguise → reconstruct → mine → score pipelines.

This package closes the paper's end-to-end loop: it takes RR schemes (classic
family members or a whole optimized Pareto front), applies the record-level
disguise to a mining workload, reconstructs the original distributions, runs
downstream miners (decision trees, association rules, distribution error) and
scores each scheme's surviving data-mining utility — fanned out over seeds
through the shared grid executor with content-addressed caching.
"""
