"""Privacy-preserving association mining on disguised data.

The related-work systems (Rizvi & Haritsa; Evfimievski et al.) mine
association rules from randomized data by reconstructing itemset supports
from the disguised supports.  This module provides that capability on top of
the contingency-table estimator: supports of attribute-value itemsets are
read off the reconstructed joint distribution, frequent itemsets are found
with a level-wise (Apriori-style) search, and rules are derived with the
usual support/confidence thresholds.

Table reuse: one :meth:`AssociationMiner.frequent_itemsets` (and so one
:meth:`AssociationMiner.mine_rules`) call reconstructs each distinct
attribute tuple once (:meth:`ContingencyEstimator.tables`); every candidate
itemset over the same attributes reads its support off that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError
from repro.mining.contingency import ContingencyEstimator, ContingencyTable
from repro.rr.matrix import RRMatrix
from repro.utils.validation import check_in_unit_interval

#: An item is one (attribute, category code) pair.
Item = tuple[str, int]


@dataclass(frozen=True)
class ItemsetSupport:
    """Support of one itemset (a set of attribute = value conditions)."""

    items: tuple[Item, ...]
    support: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    @property
    def size(self) -> int:
        """Number of items in the itemset."""
        return len(self.items)


@dataclass(frozen=True)
class AssociationRule:
    """An association rule ``antecedent -> consequent``."""

    antecedent: tuple[Item, ...]
    consequent: tuple[Item, ...]
    support: float
    confidence: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        left = " & ".join(f"{attr}={code}" for attr, code in self.antecedent)
        right = " & ".join(f"{attr}={code}" for attr, code in self.consequent)
        return f"{left} -> {right} (support={self.support:.3f}, confidence={self.confidence:.3f})"


@dataclass
class AssociationMiner:
    """Mine frequent itemsets and rules from RR-disguised data.

    Parameters
    ----------
    matrices:
        RR matrix used to disguise each attribute (attributes without a
        matrix are treated as undisguised).
    min_support:
        Minimum estimated support of a frequent itemset.
    min_confidence:
        Minimum confidence of a reported rule.
    max_itemset_size:
        Largest itemset size explored (joint reconstruction over many
        attributes grows exponentially, so keep this small).
    """

    matrices: Mapping[str, RRMatrix]
    min_support: float = 0.1
    min_confidence: float = 0.6
    max_itemset_size: int = 3

    def __post_init__(self) -> None:
        check_in_unit_interval(self.min_support, "min_support")
        check_in_unit_interval(self.min_confidence, "min_confidence")
        if self.max_itemset_size < 1:
            raise DataError("max_itemset_size must be at least 1")

    # -- supports -----------------------------------------------------------
    def itemset_support(
        self, disguised: CategoricalDataset, items: Sequence[Item]
    ) -> ItemsetSupport:
        """Estimate the support of one itemset from the disguised data."""
        items = tuple(items)
        if not items:
            raise DataError("itemset must not be empty")
        attributes = [attribute for attribute, _ in items]
        if len(set(attributes)) != len(attributes):
            raise DataError("an itemset may contain each attribute at most once")
        table = ContingencyEstimator(self.matrices).estimate(disguised, attributes)
        return self._support(table, items)

    @staticmethod
    def _support(table: ContingencyTable, items: tuple[Item, ...]) -> ItemsetSupport:
        """Support of ``items`` read off ``table`` (whose attributes they cover)."""
        support = table.probability(dict(items))
        return ItemsetSupport(items, max(0.0, float(support)))

    def frequent_itemsets(
        self, disguised: CategoricalDataset, attributes: Sequence[str] | None = None
    ) -> list[ItemsetSupport]:
        """Level-wise search for frequent itemsets over ``attributes``."""
        names = tuple(attributes) if attributes is not None else disguised.attribute_names
        tables = ContingencyEstimator(self.matrices).tables(disguised)
        frequent: list[ItemsetSupport] = []
        # Level 1: single items, read from per-attribute marginals.
        single_frequent: list[Item] = []
        for name in names:
            marginal = tables([name]).marginal(name)
            for code, probability in enumerate(marginal):
                if probability >= self.min_support:
                    item = (name, code)
                    single_frequent.append(item)
                    frequent.append(ItemsetSupport((item,), float(probability)))
        # Levels 2..k: combine frequent single items over distinct attributes.
        for size in range(2, self.max_itemset_size + 1):
            for combo in combinations(single_frequent, size):
                combo_attributes = [attribute for attribute, _ in combo]
                if len(set(combo_attributes)) != size:
                    continue
                candidate = self._support(tables(combo_attributes), combo)
                if candidate.support >= self.min_support:
                    frequent.append(candidate)
        return frequent

    # -- rules ---------------------------------------------------------------
    def mine_rules(
        self, disguised: CategoricalDataset, attributes: Sequence[str] | None = None
    ) -> list[AssociationRule]:
        """Derive association rules from the frequent itemsets."""
        itemsets = self.frequent_itemsets(disguised, attributes)
        support_index = {itemset.items: itemset.support for itemset in itemsets}
        rules: list[AssociationRule] = []
        for itemset in itemsets:
            if itemset.size < 2:
                continue
            for antecedent_size in range(1, itemset.size):
                for antecedent in combinations(itemset.items, antecedent_size):
                    antecedent = tuple(sorted(antecedent))
                    consequent = tuple(sorted(set(itemset.items) - set(antecedent)))
                    antecedent_support = support_index.get(antecedent)
                    if antecedent_support is None or antecedent_support <= 0:
                        continue
                    confidence = itemset.support / antecedent_support
                    if confidence >= self.min_confidence:
                        rules.append(
                            AssociationRule(
                                antecedent=antecedent,
                                consequent=consequent,
                                support=itemset.support,
                                confidence=min(confidence, 1.0),
                            )
                        )
        rules.sort(key=lambda rule: (rule.confidence, rule.support), reverse=True)
        return rules
