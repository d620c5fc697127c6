"""Shared type aliases used across the library."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np
from numpy.typing import NDArray

#: A probability vector over the categorical domain (sums to one).
ProbabilityVector = NDArray[np.float64]

#: A column-stochastic randomized-response matrix.
MatrixLike = Union[NDArray[np.float64], Sequence[Sequence[float]]]

#: Anything accepted where a random generator is needed.
SeedLike = Union[None, int, np.random.Generator]


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a fresh non-deterministic generator, an ``int`` seeds a
    new generator, and an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
