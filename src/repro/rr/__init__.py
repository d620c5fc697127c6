"""Randomized-response substrate.

This package implements everything the paper assumes about the randomized
response technique itself: the RR matrix abstraction, the classic scheme
constructors (Warner, Uniform Perturbation, FRAPP), parametric scheme
families, the disguise mechanism, the inversion and iterative distribution
estimators (Theorem 1 and Eq. 3), and the multi-dimensional extension noted as
future work.
"""
