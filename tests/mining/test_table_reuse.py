"""Each miner call reconstructs each distinct contingency table once."""

from __future__ import annotations

import pytest

from repro.mining.association import AssociationMiner
from repro.mining.contingency import ContingencyEstimator
from repro.mining.decision_tree import DecisionTreeBuilder


@pytest.fixture
def estimate_calls(monkeypatch) -> list[tuple[str, ...]]:
    """Record the attribute tuple of every ``ContingencyEstimator.estimate``."""
    calls: list[tuple[str, ...]] = []
    estimate = ContingencyEstimator.estimate

    def counting_estimate(self, disguised, attribute_names):
        calls.append(tuple(attribute_names))
        return estimate(self, disguised, attribute_names)

    monkeypatch.setattr(ContingencyEstimator, "estimate", counting_estimate)
    return calls


def test_tree_build_estimates_each_table_once(
    estimate_calls, disguised_survey, survey_matrices
):
    builder = DecisionTreeBuilder(survey_matrices, class_attribute="buys", max_depth=3)
    tree = builder.build(disguised_survey)
    assert tree.count_nodes() > 3
    assert len(estimate_calls) == len(set(estimate_calls))
    assert ("buys",) in estimate_calls
    assert ("income", "buys") in estimate_calls


def test_rule_mining_estimates_each_table_once(
    estimate_calls, disguised_survey, survey_matrices
):
    miner = AssociationMiner(survey_matrices, min_support=0.05, max_itemset_size=3)
    rules = miner.mine_rules(disguised_survey)
    assert rules
    assert len(estimate_calls) == len(set(estimate_calls))
    assert ("income", "region", "buys") in estimate_calls


def test_tables_are_fresh_per_call(estimate_calls, disguised_survey, survey_matrices):
    builder = DecisionTreeBuilder(survey_matrices, class_attribute="buys", max_depth=2)
    builder.build(disguised_survey)
    first = list(estimate_calls)
    builder.build(disguised_survey)
    assert estimate_calls == first + first


def test_tables_memo_returns_the_estimate(disguised_survey, survey_matrices):
    estimator = ContingencyEstimator(survey_matrices)
    tables = estimator.tables(disguised_survey)
    table = tables(["income", "buys"])
    assert tables(("income", "buys")) is table
    expected = estimator.estimate(disguised_survey, ["income", "buys"])
    assert table.attribute_names == expected.attribute_names
    assert table.probabilities.tobytes() == expected.probabilities.tobytes()
