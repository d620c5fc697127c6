"""Privacy-preserving decision-tree building on disguised data.

Du & Zhan's related-work system builds decision trees from randomized data by
reconstructing the class/attribute joint distributions needed for the split
criterion instead of counting raw records.  This module implements that idea
on top of the contingency estimator: at every node the information gain of
each candidate attribute is computed from a reconstructed joint distribution
of (attribute, class) restricted to the node's path condition.

Table reuse: one :meth:`DecisionTreeBuilder.build` call reconstructs each
distinct attribute tuple once (:meth:`ContingencyEstimator.tables`).  The
table a node's split search reads for ``path + [attribute, class]`` is the
same one the chosen child reads for its class distribution, and the branch
masses come from ``path + [attribute]``.  Accuracy is scored column-wise with
:meth:`DecisionTreeNode.predict`, which applies :meth:`predict_one`'s rule to
whole index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError
from repro.mining.contingency import ContingencyEstimator, TableLookup
from repro.rr.matrix import RRMatrix
from repro.utils.validation import check_positive_int


def _entropy(probabilities: np.ndarray) -> float:
    """Shannon entropy (nats) of a probability vector, ignoring zeros."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    positive = probabilities[probabilities > 0]
    if positive.size == 0:
        return 0.0
    return float(-(positive * np.log(positive)).sum())


@dataclass
class DecisionTreeNode:
    """One node of the reconstructed decision tree."""

    depth: int
    class_distribution: np.ndarray
    split_attribute: str | None = None
    children: dict[int, "DecisionTreeNode"] = field(default_factory=dict)
    n_estimated: float = 0.0

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no split."""
        return self.split_attribute is None

    @property
    def predicted_class(self) -> int:
        """Majority class according to the reconstructed distribution."""
        return int(np.argmax(self.class_distribution))

    def predict_one(self, record: Mapping[str, int]) -> int:
        """Predict the class code of one record (a ``{attribute: code}``
        mapping)."""
        node: DecisionTreeNode = self
        while not node.is_leaf:
            value = record.get(node.split_attribute)
            child = node.children.get(int(value)) if value is not None else None
            if child is None:
                break
            node = child
        return node.predicted_class

    def predict(self, dataset: CategoricalDataset) -> np.ndarray:
        """Predict the class code of every record of ``dataset``.

        Index arrays are routed down the tree column-wise with the rule of
        :meth:`predict_one`: records whose code has no child, and every
        record reaching a node whose split attribute is not in ``dataset``,
        get that node's :attr:`predicted_class`.  Every node labels all the
        records that reach it; the children, visited later, relabel theirs.
        """
        names = dataset.attribute_names
        predictions = np.empty(dataset.n_records, dtype=np.int64)
        pending = [(self, np.arange(dataset.n_records))]
        while pending:
            node, rows = pending.pop()
            predictions[rows] = node.predicted_class
            if node.is_leaf or node.split_attribute not in names:
                continue
            column = dataset.records[rows, names.index(node.split_attribute)]
            for code, child in node.children.items():
                pending.append((child, rows[column == code]))
        return predictions

    def count_nodes(self) -> int:
        """Total number of nodes in the subtree rooted here."""
        return 1 + sum(child.count_nodes() for child in self.children.values())


@dataclass
class DecisionTreeBuilder:
    """Build a decision tree from RR-disguised data.

    Parameters
    ----------
    matrices:
        RR matrix used for each disguised attribute (attributes without a
        matrix are treated as undisguised; the class attribute is typically
        undisguised at the miner's site).
    class_attribute:
        The attribute to predict.
    max_depth:
        Maximum tree depth.
    min_information_gain:
        Minimum information gain required to split a node.
    min_node_probability:
        Minimum estimated probability mass of a node; branches thinner than
        this are turned into leaves to avoid chasing reconstruction noise.
    """

    matrices: Mapping[str, RRMatrix]
    class_attribute: str
    max_depth: int = 3
    min_information_gain: float = 1e-3
    min_node_probability: float = 0.01

    def __post_init__(self) -> None:
        check_positive_int(self.max_depth, "max_depth")
        # Written so that NaN fails too: no gain ever compares below NaN.
        if not self.min_information_gain >= 0:
            raise DataError(
                f"min_information_gain must be non-negative, got {self.min_information_gain}"
            )
        if not 0 <= self.min_node_probability < 1:
            raise DataError("min_node_probability must be in [0, 1)")

    def build(
        self,
        disguised: CategoricalDataset,
        candidate_attributes: list[str] | None = None,
    ) -> DecisionTreeNode:
        """Build the tree from a disguised dataset."""
        if self.class_attribute not in disguised.attribute_names:
            raise DataError(f"class attribute {self.class_attribute!r} not in dataset")
        candidates = (
            list(candidate_attributes)
            if candidate_attributes is not None
            else [name for name in disguised.attribute_names if name != self.class_attribute]
        )
        if self.class_attribute in candidates:
            raise DataError("the class attribute cannot be a split candidate")
        tables = ContingencyEstimator(self.matrices).tables(disguised)
        return self._build_node(disguised, tables, candidates, path={}, depth=0, mass=1.0)

    # -- internals -------------------------------------------------------------
    def _build_node(
        self,
        disguised: CategoricalDataset,
        tables: TableLookup,
        candidates: list[str],
        path: dict[str, int],
        depth: int,
        mass: float,
    ) -> DecisionTreeNode:
        class_distribution = self._class_distribution(tables, path)
        node = DecisionTreeNode(
            depth=depth,
            class_distribution=class_distribution,
            n_estimated=mass * disguised.n_records,
        )
        if depth >= self.max_depth or not candidates or mass < self.min_node_probability:
            return node
        best_attribute, best_gain = self._best_split(
            tables, candidates, path, class_distribution
        )
        if best_attribute is None or best_gain < self.min_information_gain:
            return node
        node.split_attribute = best_attribute
        attribute = disguised.attribute(best_attribute)
        remaining = [name for name in candidates if name != best_attribute]
        branch_table = tables([*path, best_attribute])
        for code in range(attribute.n_categories):
            branch_path = dict(path)
            branch_path[best_attribute] = code
            branch_mass = self._path_probability(branch_table, branch_path)
            if branch_mass <= 0:
                continue
            node.children[code] = self._build_node(
                disguised, tables, remaining, branch_path, depth + 1, branch_mass
            )
        if not node.children:
            node.split_attribute = None
        return node

    def _class_distribution(
        self,
        tables: TableLookup,
        path: dict[str, int],
    ) -> np.ndarray:
        table = tables([*path, self.class_attribute])
        if path:
            return table.conditional(self.class_attribute, path)
        return table.marginal(self.class_attribute)

    def _path_probability(self, table, path: dict[str, int]) -> float:
        relevant = {name: code for name, code in path.items() if name in table.attribute_names}
        if not relevant:
            return 1.0
        # Marginalise the joint over the attributes not in the path.
        probabilities = table.probabilities
        names = table.attribute_names
        slicer = tuple(
            relevant[name] if name in relevant else slice(None) for name in names
        )
        selected = probabilities[slicer]
        return float(np.clip(np.sum(selected), 0.0, 1.0))

    def _best_split(
        self,
        tables: TableLookup,
        candidates: list[str],
        path: dict[str, int],
        parent_distribution: np.ndarray,
    ) -> tuple[str | None, float]:
        parent_entropy = _entropy(parent_distribution)
        best_attribute: str | None = None
        best_gain = -np.inf
        for name in candidates:
            table = tables([*path, name, self.class_attribute])
            gain = self._information_gain(table, name, path, parent_entropy)
            if gain > best_gain:
                best_attribute, best_gain = name, gain
        return best_attribute, float(best_gain)

    def _information_gain(
        self, table, attribute: str, path: dict[str, int], parent_entropy: float
    ) -> float:
        attribute_axis = table.attribute_names.index(attribute)
        class_axis = table.attribute_names.index(self.class_attribute)
        probabilities = table.probabilities
        # Condition on the path attributes first.
        slicer = []
        for index, name in enumerate(table.attribute_names):
            if name in path:
                slicer.append(int(path[name]))
            else:
                slicer.append(slice(None))
        conditioned = probabilities[tuple(slicer)]
        # After slicing, the remaining axes are (attribute, class) in original
        # order; normalise to a proper joint distribution.
        if conditioned.ndim != 2:
            raise DataError("unexpected contingency shape during information gain")
        if attribute_axis > class_axis:
            conditioned = conditioned.T
        total = conditioned.sum()
        if total <= 0:
            return 0.0
        joint = conditioned / total
        attribute_marginal = joint.sum(axis=1)
        conditional_entropy = 0.0
        for value_probability, row in zip(attribute_marginal, joint):
            if value_probability <= 0:
                continue
            conditional_entropy += value_probability * _entropy(row / value_probability)
        return parent_entropy - conditional_entropy
