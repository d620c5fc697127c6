"""Joint-distribution (contingency-table) reconstruction from disguised data.

When several attributes are disguised independently, the joint distribution of
the original attributes can be estimated from the joint distribution of the
disguised attributes with the Kronecker-product RR matrix — exactly the
one-dimensional inversion estimator applied to the product domain.  This is
the substrate both PPDM applications (association mining, decision trees)
build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError
from repro.rr.matrix import RRMatrix
from repro.rr.multidim import MultiDimensionalRR


@dataclass(frozen=True)
class ContingencyTable:
    """Estimated joint distribution over a set of categorical attributes.

    Attributes
    ----------
    attribute_names:
        The attributes covered, in axis order.
    domain_sizes:
        Number of categories of each attribute.
    probabilities:
        Joint probability array of shape ``domain_sizes``.
    """

    attribute_names: tuple[str, ...]
    domain_sizes: tuple[int, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if probabilities.shape != tuple(self.domain_sizes):
            raise DataError(
                f"probabilities shape {probabilities.shape} does not match "
                f"domain sizes {self.domain_sizes}"
            )
        object.__setattr__(self, "probabilities", probabilities)

    def probability(self, assignment: Mapping[str, int]) -> float:
        """Probability of a full assignment ``{attribute: code}``."""
        index = tuple(assignment[name] for name in self.attribute_names)
        return float(self.probabilities[index])

    def marginal(self, name: str) -> np.ndarray:
        """Marginal distribution of one attribute."""
        if name not in self.attribute_names:
            raise DataError(f"attribute {name!r} is not part of this table")
        axis = self.attribute_names.index(name)
        axes = tuple(i for i in range(len(self.attribute_names)) if i != axis)
        return self.probabilities.sum(axis=axes)

    def conditional(self, target: str, given: Mapping[str, int]) -> np.ndarray:
        """Conditional distribution of ``target`` given fixed codes for some
        other attributes."""
        if target in given:
            raise DataError("target attribute must not appear in the condition")
        slicer: list[object] = []
        for name in self.attribute_names:
            if name == target:
                slicer.append(slice(None))
            elif name in given:
                slicer.append(int(given[name]))
            else:
                slicer.append(slice(None))
        selected = self.probabilities[tuple(slicer)]
        # Sum out any attributes that are neither target nor conditioned on.
        free_axes = []
        axis_counter = 0
        for name in self.attribute_names:
            if name == target:
                axis_counter += 1
                continue
            if name not in given:
                free_axes.append(axis_counter)
                axis_counter += 1
        if free_axes:
            selected = selected.sum(axis=tuple(free_axes))
        total = selected.sum()
        if total <= 0:
            return np.full(selected.shape, 1.0 / selected.size)
        return selected / total


#: A table source: attribute names in axis order -> their joint table.
TableLookup = Callable[[Sequence[str]], ContingencyTable]


@dataclass(frozen=True)
class ContingencyEstimator:
    """Estimate the joint distribution of disguised attributes.

    Parameters
    ----------
    matrices:
        Mapping from attribute name to the RR matrix it was disguised with.
        Attributes not present are assumed undisguised (identity matrix).
    method:
        Estimation method: ``"inversion"`` or ``"iterative"``.
    """

    matrices: Mapping[str, RRMatrix]
    method: str = "inversion"

    def estimate(
        self, disguised: CategoricalDataset, attribute_names: Sequence[str]
    ) -> ContingencyTable:
        """Estimate the joint original distribution of ``attribute_names`` from
        a disguised dataset."""
        names = tuple(attribute_names)
        if not names:
            raise DataError("at least one attribute is required")
        matrices = []
        sizes = []
        for name in names:
            attribute = disguised.attribute(name)
            sizes.append(attribute.n_categories)
            matrix = self.matrices.get(name)
            if matrix is None:
                matrix = RRMatrix.identity(attribute.n_categories)
            if matrix.n_categories != attribute.n_categories:
                raise DataError(
                    f"RR matrix for {name!r} has domain {matrix.n_categories} but the "
                    f"attribute has {attribute.n_categories} categories"
                )
            matrices.append(matrix)
        mechanism = MultiDimensionalRR(names, tuple(matrices))
        estimate = mechanism.estimate_joint_distribution(disguised, method=self.method)
        joint = estimate.probabilities.reshape(tuple(sizes))
        return ContingencyTable(names, tuple(sizes), joint)

    def tables(self, disguised: CategoricalDataset) -> TableLookup:
        """:meth:`estimate` memoised for one dataset.

        The returned callable reconstructs each distinct attribute tuple (in
        the order given) once and hands back the same table afterwards, so a
        miner holds it for one mining call over ``disguised`` and drops it.
        The shared tables must be treated as read-only.
        """
        memo: dict[tuple[str, ...], ContingencyTable] = {}

        def table(attribute_names: Sequence[str]) -> ContingencyTable:
            names = tuple(attribute_names)
            if names not in memo:
                memo[names] = self.estimate(disguised, names)
            return memo[names]

        return table

    def estimate_true(
        self, original: CategoricalDataset, attribute_names: Sequence[str]
    ) -> ContingencyTable:
        """Empirical joint distribution of the *original* dataset (ground
        truth for evaluating reconstruction error)."""
        names = tuple(attribute_names)
        sizes = [original.attribute(name).n_categories for name in names]
        joint_codes = np.zeros(original.n_records, dtype=np.int64)
        for name, size in zip(names, sizes):
            joint_codes = joint_codes * size + original.column(name)
        counts = np.bincount(joint_codes, minlength=int(np.prod(sizes))).astype(np.float64)
        joint = (counts / counts.sum()).reshape(tuple(sizes))
        return ContingencyTable(names, tuple(sizes), joint)
