"""Shared type aliases and the seeded-generator helpers used across the library."""

from __future__ import annotations

from typing import Any, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from repro.exceptions import ValidationError

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


def rng_state_document(rng: np.random.Generator) -> dict[str, Any]:
    """The generator's bit-generator state as plain JSON data."""
    return _plain(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state: Any) -> None:
    """Restore a :func:`rng_state_document` snapshot into ``rng``.

    The bit generator checks its own fields, except the buffered-draw flag
    ``has_uint32``, which it takes as any truthy value; that one must be 0
    or 1 (:class:`~repro.exceptions.ValidationError` otherwise).
    """
    flag = state.get("has_uint32", 0) if isinstance(state, dict) else 0
    if type(flag) is not int or flag not in (0, 1):
        raise ValidationError(f"cannot restore RNG state: has_uint32 must be 0 or 1, got {flag!r}")
    try:
        rng.bit_generator.state = state
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ValidationError(f"cannot restore RNG state: {exc}") from exc


def _plain(value: Any) -> Any:
    """Recursively convert numpy scalars to native types (ints stay exact:
    Python ints are arbitrary precision, and the PCG64 state is two 128-bit
    integers)."""
    if isinstance(value, dict):
        return {key: _plain(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    if isinstance(value, np.generic):
        return value.item()
    return value
