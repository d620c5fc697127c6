"""Multi-dimensional randomized response (the paper's future-work extension).

The paper applies RR to each attribute independently and notes that extending
the optimization to multi-dimensional RR is future work.  This module provides
the substrate for that extension: when ``k`` attributes are disguised
independently with matrices ``M_1 ... M_k``, the joint domain is the Cartesian
product of the attribute domains and the effective joint RR matrix is the
Kronecker product ``M_1 ⊗ ... ⊗ M_k``.  The joint original distribution can
then be estimated from the joint disguised distribution exactly as in the
one-dimensional case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, RRMatrixError
from repro.rr.estimation import DistributionEstimate, InversionEstimator, IterativeEstimator
from repro.rr.matrix import RRMatrix
from repro.rr.randomize import RandomizedResponse
from repro.types import SeedLike, as_rng


@dataclass(frozen=True)
class MultiDimensionalRR:
    """Independent per-attribute randomized response over several attributes.

    Parameters
    ----------
    attribute_names:
        Names of the disguised attributes, in joint-encoding order.
    matrices:
        One RR matrix per attribute (same order).
    """

    attribute_names: tuple[str, ...]
    matrices: tuple[RRMatrix, ...]

    def __post_init__(self) -> None:
        names = tuple(self.attribute_names)
        matrices = tuple(self.matrices)
        if not names:
            raise DataError("at least one attribute is required")
        if len(names) != len(matrices):
            raise DataError("attribute_names and matrices must have equal length")
        if len(set(names)) != len(names):
            raise DataError("attribute names must be unique")
        object.__setattr__(self, "attribute_names", names)
        object.__setattr__(self, "matrices", matrices)

    # -- joint-domain helpers ------------------------------------------------
    @property
    def domain_sizes(self) -> tuple[int, ...]:
        """Per-attribute domain sizes."""
        return tuple(matrix.n_categories for matrix in self.matrices)

    @property
    def joint_domain_size(self) -> int:
        """Size of the joint (product) domain."""
        return int(np.prod(self.domain_sizes))

    def joint_matrix(self) -> RRMatrix:
        """The joint RR matrix, i.e. the Kronecker product of the per-attribute
        matrices.  Only materialise this for small joint domains."""
        if self.joint_domain_size > 4096:
            raise RRMatrixError(
                f"joint domain of size {self.joint_domain_size} is too large to "
                "materialise explicitly; estimate marginals per attribute instead"
            )
        joint = reduce(np.kron, (matrix.probabilities for matrix in self.matrices))
        return RRMatrix(joint)

    def encode_joint(self, dataset: CategoricalDataset) -> np.ndarray:
        """Encode the selected attributes of ``dataset`` into joint codes
        (mixed-radix, first attribute most significant)."""
        columns = [dataset.column(name) for name in self.attribute_names]
        sizes = self.domain_sizes
        for name, column, size in zip(self.attribute_names, columns, sizes):
            if column.max() >= size:
                raise DataError(
                    f"attribute {name!r} contains codes outside the matrix domain"
                )
        codes = np.zeros(dataset.n_records, dtype=np.int64)
        for column, size in zip(columns, sizes):
            codes = codes * size + column
        return codes

    # -- mechanism -------------------------------------------------------------
    def randomize(self, dataset: CategoricalDataset, seed: SeedLike = None) -> CategoricalDataset:
        """Disguise every configured attribute of ``dataset`` independently."""
        rng = as_rng(seed)
        result = dataset
        for name, matrix in zip(self.attribute_names, self.matrices):
            result = RandomizedResponse(matrix).randomize_attribute(result, name, seed=rng)
        return result

    def estimate_joint_distribution(
        self,
        disguised: CategoricalDataset,
        *,
        method: str = "inversion",
    ) -> DistributionEstimate:
        """Estimate the joint original distribution of the configured
        attributes from a disguised dataset."""
        joint_codes = self.encode_joint(disguised)
        counts = np.bincount(joint_codes, minlength=self.joint_domain_size).astype(np.float64)
        matrix = self.joint_matrix()
        if method == "inversion":
            return InversionEstimator().estimate(counts, matrix)
        if method == "iterative":
            return IterativeEstimator().estimate(counts, matrix)
        raise DataError(f"unknown estimation method {method!r}")

    def estimate_marginals(
        self,
        disguised: CategoricalDataset,
        *,
        method: str = "inversion",
    ) -> dict[str, DistributionEstimate]:
        """Estimate each attribute's marginal distribution independently."""
        estimates: dict[str, DistributionEstimate] = {}
        for name, matrix in zip(self.attribute_names, self.matrices):
            codes = disguised.column(name)
            counts = np.bincount(codes, minlength=matrix.n_categories).astype(np.float64)
            if method == "inversion":
                estimates[name] = InversionEstimator().estimate(counts, matrix)
            elif method == "iterative":
                estimates[name] = IterativeEstimator().estimate(counts, matrix)
            else:
                raise DataError(f"unknown estimation method {method!r}")
        return estimates
