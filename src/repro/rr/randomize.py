"""The randomized-response disguise mechanism.

:class:`RandomizedResponse` applies an RR matrix to integer-coded data: every
original value ``c_i`` is independently replaced by ``c_j`` with probability
``M[j, i]``.  The mechanism works on raw code arrays, on single attributes of
a :class:`~repro.data.dataset.CategoricalDataset`, and on whole datasets (one
matrix per attribute).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, RRMatrixError
from repro.rr.matrix import RRMatrix
from repro.types import SeedLike, as_rng


def check_codes(codes: np.ndarray, n_categories: int) -> np.ndarray:
    """Validate an integer code array against a category domain.

    Returns the codes as a C-contiguous int64 array after a **single pass**
    over the data: reinterpreting the int64 values as uint64 wraps negatives
    to huge values, so one ``>= n`` comparison checks both domain bounds at
    once (the two-sided min/max scan only runs on the error path, to build
    the message).
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise DataError(f"codes must be one-dimensional, got shape {codes.shape}")
    if codes.size == 0:
        raise DataError("codes must not be empty")
    if (codes.view(np.uint64) >= np.uint64(n_categories)).any():
        raise DataError(
            f"codes must lie in [0, {n_categories}), "
            f"got range [{codes.min()}, {codes.max()}]"
        )
    return codes


def disguise_codes(
    probabilities: np.ndarray, codes: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Randomized-response disguise of validated ``(N,)`` int64 codes.

    ``probabilities`` is the ``(n, n)`` column-stochastic RR matrix
    (``probabilities[j, i]`` = P(report ``j`` | true ``i``)) and
    ``uniforms`` the caller's pre-drawn ``rng.random(N)`` values, in draw
    order.  Record ``k`` reports the first row ``j`` with ``cdf[j, c] >=
    uniforms[k]`` in its column CDF ``c = codes[k]`` (last entry clamped to
    exactly ``1.0``) — bit-identical to the frozen ``(n, N)`` broadcast in
    ``tests/oracles/disguise.py``.

    Sort-and-group ``searchsorted``: stable-argsort the codes, gather the
    uniforms into category order once, then binary-search each category's
    contiguous slice against its column CDF.  ``side="left"`` counts the CDF
    entries strictly below each uniform.  The sort key is the smallest
    unsigned dtype holding ``n - 1`` (the caller's :func:`check_codes` has
    held the codes to ``[0, n)``, so the cast cannot wrap): NumPy radix-sorts
    keys of 16 bits or fewer in O(N), and for ``n <= 65536`` the kernel costs
    O(N log n) in the searches; wider keys fall back to an O(N log N)
    timsort.  Peak auxiliary memory stays O(N + n^2).
    """
    n = probabilities.shape[0]
    cdf = np.cumsum(probabilities, axis=0)
    cdf[-1, :] = 1.0
    order = np.argsort(codes.astype(np.min_scalar_type(n - 1)), kind="stable")
    sorted_uniforms = uniforms[order]
    boundaries = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=n), out=boundaries[1:])
    sorted_out = np.empty(codes.size, dtype=np.int64)
    for category in range(n):
        begin, end = boundaries[category], boundaries[category + 1]
        if begin < end:
            sorted_out[begin:end] = np.searchsorted(
                cdf[:, category], sorted_uniforms[begin:end], side="left"
            )
    disguised = np.empty(codes.size, dtype=np.int64)
    disguised[order] = sorted_out
    return disguised


@dataclass(frozen=True)
class RandomizedResponse:
    """Disguise mechanism for a single categorical attribute.

    Parameters
    ----------
    matrix:
        The RR matrix used for disguising.
    """

    matrix: RRMatrix

    @property
    def n_categories(self) -> int:
        """Domain size handled by this mechanism."""
        return self.matrix.n_categories

    def randomize_codes(self, codes: np.ndarray, seed: SeedLike = None) -> np.ndarray:
        """Disguise an integer-coded value array.

        Each input code ``i`` is replaced by a draw from column ``i`` of the
        RR matrix via inverse-CDF sampling: one ``rng.random(N)`` draw, then
        the deterministic :func:`disguise_codes` kernel, bit-identical to the
        historical ``(n, N)`` broadcast path while peak memory stays
        O(N + n^2) and compute O(N log n) (a radix grouping pass plus
        per-category binary searches; domains above 65536 categories sort
        in O(N log N)).
        """
        codes = check_codes(codes, self.n_categories)
        rng = as_rng(seed)
        uniforms = rng.random(codes.size)
        return disguise_codes(self.matrix.probabilities, codes, uniforms)

    def randomize_attribute(
        self,
        dataset: CategoricalDataset,
        attribute: str,
        seed: SeedLike = None,
    ) -> CategoricalDataset:
        """Return a copy of ``dataset`` with ``attribute`` disguised."""
        metadata = dataset.attribute(attribute)
        if metadata.n_categories != self.n_categories:
            raise RRMatrixError(
                f"attribute {attribute!r} has {metadata.n_categories} categories "
                f"but the RR matrix is {self.n_categories}x{self.n_categories}"
            )
        disguised = self.randomize_codes(dataset.column(attribute), seed=seed)
        return dataset.with_column(attribute, disguised)

    def expected_disguised_distribution(self, prior: np.ndarray) -> np.ndarray:
        """Return ``P* = M P`` for a prior ``P`` (Eq. 1)."""
        return self.matrix.disguise_distribution(prior)
