"""Search-space size of the RR-matrix optimization problem (Fact 1).

If every matrix entry is restricted to the grid ``{0, 1/d, ..., 1}``, each
column is a composition of ``d`` into ``n`` non-negative parts, so there are
``C(d + n - 1, d)`` choices per column and ``C(d + n - 1, d)^n`` matrices in
total.  For ``n = 10`` and ``d = 100`` this is about ``1.98e126`` — the number
the paper quotes to motivate the evolutionary search.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_positive_int


def column_combinations(n_categories: int, d: int) -> int:
    """Number of discretised probability columns: ``C(d + n - 1, d)``."""
    check_positive_int(n_categories, "n_categories")
    check_positive_int(d, "d")
    return math.comb(d + n_categories - 1, d)


def rr_matrix_combinations(n_categories: int, d: int) -> int:
    """Total number of discretised RR matrices: ``C(d + n - 1, d)^n`` (Fact 1)."""
    return column_combinations(n_categories, d) ** n_categories


def log10_rr_matrix_combinations(n_categories: int, d: int) -> float:
    """Base-10 logarithm of the search-space size (exact combinations grow far
    beyond float range, so reporting the exponent is more practical)."""
    per_column = column_combinations(n_categories, d)
    return n_categories * math.log10(per_column)

