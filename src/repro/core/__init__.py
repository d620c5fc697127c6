"""OptRR core: the paper's SPEA2-based search for optimal RR matrices.

This package turns the EMOO substrate (:mod:`repro.emoo`) into the paper's
algorithm: ``(P, n, n)`` stacks of RR matrices are the genomes, privacy (Eq. 8) and utility
(Theorem 6) are the two objectives, the variation operators respect the
column-stochastic constraint, a repair step enforces the worst-case bound
``delta`` (Eq. 9), and an unbounded-cost *optimal set* Ω keeps every good
matrix evicted from the bounded archive.
"""
