"""Frozen broadcast reference for the ``disguise_codes`` kernel.

This is the original ``(n, N)`` broadcast implementation of the RR disguise,
kept verbatim as the executable specification of the kernel's semantics: the
kernel equivalence suite, the streaming tests and
``benchmarks/bench_rr_runtime.py`` compare
:func:`repro.rr.randomize.disguise_codes` against it bit for bit.  Nothing in
``src/`` imports it.  It materialises the ``(n, N)`` float intermediate the
kernel exists to avoid, and must never change: any fix that moves its output
is by definition a change to the disguise contract and would fork every
fixed-seed trajectory, pipeline document and cache key in the repo.
"""

from __future__ import annotations

import numpy as np


def broadcast_disguise_reference(
    probabilities: np.ndarray, codes: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """The historical ``(n, N)`` broadcast disguise (frozen specification).

    Same signature and semantics as
    :func:`repro.rr.randomize.disguise_codes`: for record ``k``
    with true code ``c``, count the column-CDF entries strictly below
    ``uniforms[k]`` — i.e. the first row ``j`` with ``cdf[j, c] >=
    uniforms[k]``.
    """
    cdf = np.cumsum(probabilities, axis=0)
    cdf[-1, :] = 1.0
    column_cdfs = cdf[:, codes]  # the (n, N) intermediate — reference only
    return (uniforms[None, :] > column_cdfs).sum(axis=0).astype(np.int64)
