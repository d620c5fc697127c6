"""Tests for repro.mining.decision_tree."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, ValidationError
from repro.mining.decision_tree import DecisionTreeBuilder, DecisionTreeNode
from repro.rr.matrix import RRMatrix


class TestDecisionTreeBuilder:
    def test_builds_a_tree_that_splits_on_the_predictive_attribute(
        self, disguised_survey, survey_matrices
    ):
        builder = DecisionTreeBuilder(
            survey_matrices, class_attribute="buys", max_depth=2
        )
        tree = builder.build(disguised_survey)
        # Income is by construction far more predictive than region.
        assert tree.split_attribute == "income"
        assert tree.count_nodes() > 1

    def test_tree_predictions_beat_majority_class(
        self, survey_dataset, disguised_survey, survey_matrices
    ):
        builder = DecisionTreeBuilder(
            survey_matrices, class_attribute="buys", max_depth=2
        )
        tree = builder.build(disguised_survey)
        predictions = tree.predict(survey_dataset)
        truth = survey_dataset.column("buys")
        accuracy = float(np.mean(predictions == truth))
        majority = max(np.mean(truth == 0), np.mean(truth == 1))
        assert accuracy > majority + 0.02

    def test_class_distributions_are_valid(self, disguised_survey, survey_matrices):
        builder = DecisionTreeBuilder(survey_matrices, class_attribute="buys", max_depth=2)
        tree = builder.build(disguised_survey)

        def walk(node):
            assert node.class_distribution.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(node.class_distribution >= -1e-9)
            for child in node.children.values():
                walk(child)

        walk(tree)

    def test_max_depth_zero_like_behaviour(self, disguised_survey, survey_matrices):
        builder = DecisionTreeBuilder(
            survey_matrices, class_attribute="buys", max_depth=1,
            min_information_gain=10.0,  # impossible gain -> leaf
        )
        tree = builder.build(disguised_survey)
        assert tree.is_leaf
        assert tree.predicted_class in (0, 1)

    def test_unknown_class_attribute_raises(self, disguised_survey, survey_matrices):
        builder = DecisionTreeBuilder(survey_matrices, class_attribute="missing")
        with pytest.raises(DataError):
            builder.build(disguised_survey)

    def test_class_attribute_cannot_be_candidate(self, disguised_survey, survey_matrices):
        builder = DecisionTreeBuilder(survey_matrices, class_attribute="buys")
        with pytest.raises(DataError):
            builder.build(disguised_survey, candidate_attributes=["buys", "income"])

    def test_prediction_falls_back_to_majority_for_unknown_branch(
        self, disguised_survey, survey_matrices
    ):
        builder = DecisionTreeBuilder(survey_matrices, class_attribute="buys", max_depth=1)
        tree = builder.build(disguised_survey)
        # A record missing the split attribute falls back to the node's class.
        prediction = tree.predict_one({"region": 0})
        assert prediction == tree.predicted_class

    def test_parameter_validation(self, survey_matrices):
        with pytest.raises(ValidationError):
            DecisionTreeBuilder(survey_matrices, class_attribute="buys", max_depth=0)
        with pytest.raises(DataError):
            DecisionTreeBuilder(
                survey_matrices, class_attribute="buys", min_information_gain=-1.0
            )
        with pytest.raises(DataError):
            DecisionTreeBuilder(
                survey_matrices, class_attribute="buys", min_information_gain=float("nan")
            )
        with pytest.raises(DataError):
            DecisionTreeBuilder(
                survey_matrices, class_attribute="buys", min_node_probability=1.5
            )


# -- columnar prediction -------------------------------------------------------

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def predict_per_record(tree: DecisionTreeNode, dataset: CategoricalDataset) -> np.ndarray:
    """The per-record oracle: ``predict_one`` on every record's mapping."""
    names = dataset.attribute_names
    return np.array(
        [tree.predict_one(dict(zip(names, row))) for row in dataset.records],
        dtype=np.int64,
    )


def assert_predict_matches_oracle(tree: DecisionTreeNode, dataset: CategoricalDataset):
    predictions = tree.predict(dataset)
    assert predictions.dtype == np.int64
    np.testing.assert_array_equal(predictions, predict_per_record(tree, dataset))


@st.composite
def rr_matrices(draw, n: int) -> RRMatrix:
    """A random column-stochastic matrix with a dominant (so invertible) diagonal."""
    keep = draw(st.floats(0.55, 0.95))
    noise = np.array(
        draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    )
    noise /= noise.sum(axis=0, keepdims=True)
    return RRMatrix(keep * np.eye(n) + (1.0 - keep) * noise)


@st.composite
def datasets(draw, sizes: dict[str, int], max_records: int = 40) -> CategoricalDataset:
    """Few records over small domains, so some codes are absent."""
    names = list(sizes)
    rows = draw(st.lists(
        st.tuples(*(st.integers(0, sizes[name] - 1) for name in names)),
        min_size=1, max_size=max_records,
    ))
    return CategoricalDataset.from_columns(
        {name: [row[index] for row in rows] for index, name in enumerate(names)},
        {name: tuple(f"v{code}" for code in range(sizes[name])) for name in names},
    )


@st.composite
def built_trees(draw):
    """A tree built on random data, plus test sets with and without attributes."""
    n_attributes = draw(st.integers(1, 3))
    sizes = {f"a{index}": draw(st.integers(2, 4)) for index in range(n_attributes)}
    sizes["y"] = draw(st.integers(2, 3))
    matrices = {}
    for name in list(sizes)[:-1]:
        if draw(st.booleans()):
            matrices[name] = draw(rr_matrices(sizes[name]))
    builder = DecisionTreeBuilder(
        matrices,
        class_attribute="y",
        max_depth=draw(st.integers(1, 4)),
        min_information_gain=draw(st.sampled_from([0.0, 1e-3])),
        min_node_probability=draw(st.sampled_from([0.0, 0.01, 0.2])),
    )
    tree = builder.build(draw(datasets(sizes)))
    test_set = draw(datasets(sizes, max_records=60))
    dropped = draw(st.sampled_from(list(sizes)[:-1]))
    return tree, test_set, test_set.select([name for name in sizes if name != dropped])


#: Class distributions with ties (argmax must take the first maximum) and
#: negative reconstruction noise.
CLASS_DISTRIBUTIONS = [
    [0.5, 0.5], [0.0, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.2, 0.4, 0.4],
    [0.7, 0.3], [-0.1, 1.1], [0.1, 0.45, 0.45],
]


@st.composite
def hand_trees(draw, sizes: dict[str, int], depth: int = 0) -> DecisionTreeNode:
    """Arbitrary tree shapes: any subset of child codes, unknown attributes."""
    node = DecisionTreeNode(
        depth=depth,
        class_distribution=np.array(draw(st.sampled_from(CLASS_DISTRIBUTIONS))),
    )
    if depth < 4 and draw(st.booleans()):
        node.split_attribute = draw(st.sampled_from([*sizes, "unknown"]))
        codes = draw(st.sets(st.integers(0, sizes.get(node.split_attribute, 3) - 1)))
        for code in sorted(codes):
            node.children[code] = draw(hand_trees(sizes, depth + 1))
    return node


class TestColumnarPredict:
    @SETTINGS
    @given(case=built_trees())
    def test_built_tree_predict_equals_predict_one(self, case):
        tree, test_set, without_attribute = case
        assert_predict_matches_oracle(tree, test_set)
        assert_predict_matches_oracle(tree, without_attribute)

    @SETTINGS
    @given(data=st.data())
    def test_any_tree_shape_predict_equals_predict_one(self, data):
        sizes = {"a0": 3, "a1": 2, "y": 2}
        tree = data.draw(hand_trees(sizes))
        assert_predict_matches_oracle(tree, data.draw(datasets(sizes)))

    def test_skipped_codes_and_ties_fall_back_to_the_node(self):
        tie = np.array([0.5, 0.5])
        tree = DecisionTreeNode(
            depth=0,
            class_distribution=np.array([0.2, 0.8]),
            split_attribute="a0",
            children={
                0: DecisionTreeNode(depth=1, class_distribution=tie),
                2: DecisionTreeNode(
                    depth=1,
                    class_distribution=np.array([0.9, 0.1]),
                    split_attribute="missing",
                ),
            },
        )
        dataset = CategoricalDataset.from_columns(
            {"a0": [0, 1, 2, 1], "y": [0, 0, 0, 1]},
            {"a0": ("x", "y", "z"), "y": ("no", "yes")},
        )
        # code 0 -> tied leaf -> class 0; code 1 has no child -> root's class
        # 1; code 2 -> a node splitting on an absent attribute -> its class 0.
        np.testing.assert_array_equal(tree.predict(dataset), [0, 1, 0, 1])
        assert_predict_matches_oracle(tree, dataset)
