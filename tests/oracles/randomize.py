"""Per-attribute dataset disguise, one RR matrix per attribute.

:func:`randomize_dataset` is the plain loop over
:meth:`repro.rr.randomize.RandomizedResponse.randomize_attribute` behind the
paper's one-dimensional-RR-per-attribute setting.  The mining fixtures
disguise their survey data with it, and the multi-attribute tests check
:meth:`repro.rr.multidim.MultiDimensionalRR.randomize` against it draw for
draw.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from repro.data.dataset import CategoricalDataset
from repro.rr.matrix import RRMatrix
from repro.rr.randomize import RandomizedResponse
from repro.types import SeedLike, as_rng


def randomize_dataset(
    dataset: CategoricalDataset,
    matrices: dict[str, RRMatrix],
    seed: SeedLike = None,
) -> CategoricalDataset:
    """Disguise several attributes of ``dataset`` (one RR matrix each).

    Attributes without a matrix are left untouched.  One generator is shared
    across the attributes, in the order of ``matrices``.
    """
    rng = as_rng(seed)
    result = dataset
    for attribute, matrix in matrices.items():
        mechanism = RandomizedResponse(matrix)
        result = mechanism.randomize_attribute(result, attribute, seed=rng)
    return result
