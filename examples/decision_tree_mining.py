"""Privacy-preserving decision-tree building on RR-disguised data.

Follows the Du & Zhan-style scenario from the paper's related work: build a
classifier for a survey outcome when the predictive attribute arrives only in
randomized (disguised) form.  The split criterion works on distributions
reconstructed with the inversion estimator rather than on raw counts.

This example drives the scenario through the end-to-end pipeline API
(``repro.pipeline``): one declarative spec sweeps several disguise strengths,
fans out over seeds, and reports how tree accuracy degrades as privacy
rises.  It then drills into a single scheme to print the reconstructed tree.

Run with::

    python examples/decision_tree_mining.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_pipeline_table
from repro.data.workload import (
    CLASS_ATTRIBUTE,
    CONTEXT_ATTRIBUTE,
    SENSITIVE_ATTRIBUTE,
    build_workload,
)
from repro.mining.decision_tree import DecisionTreeBuilder, DecisionTreeNode
from repro.pipeline.runner import disguise_workload, run_pipeline
from repro.pipeline.spec import plan_pipeline
from repro.rr.schemes import warner_matrix

DATA = "adult:education"
N_RECORDS = 12_000


def print_tree(node: DecisionTreeNode, workload, indent: str = "") -> None:
    """Pretty-print the reconstructed tree."""
    class_labels = workload.dataset.attribute(CLASS_ATTRIBUTE).categories
    if node.is_leaf:
        distribution = ", ".join(
            f"{label}={probability:.2f}"
            for label, probability in zip(class_labels, node.class_distribution)
        )
        print(f"{indent}leaf -> predict {class_labels[node.predicted_class]!r} ({distribution})")
        return
    labels = workload.dataset.attribute(node.split_attribute).categories
    print(f"{indent}split on {node.split_attribute!r}")
    for code, child in sorted(node.children.items()):
        print(f"{indent}  {node.split_attribute} = {labels[code]!r}:")
        print_tree(child, workload, indent + "    ")


def main() -> None:
    # 1. Sweep four disguise strengths through the full pipeline: each scheme
    #    disguises the education attribute, the tree miner reconstructs the
    #    split distributions, and accuracy is scored on the original records.
    spec = plan_pipeline(
        DATA,
        schemes=["warner:0.9", "warner:0.7", "warner:0.45", "warner:0.2"],
        miners=["tree"],
        seeds=[0, 1],
        n_records=N_RECORDS,
    )
    result = run_pipeline(spec, n_jobs=2)
    print("Tree accuracy vs disguise strength (cross-seed mean +/- std):")
    print(format_pipeline_table(result.aggregate_document()))
    print()

    # 2. Drill into one strong disguise: build and print its actual tree.
    workload = build_workload(DATA, N_RECORDS, seed=0)
    matrix = warner_matrix(workload.n_categories, 0.45)
    disguised = disguise_workload(workload, matrix)
    builder = DecisionTreeBuilder(
        {SENSITIVE_ATTRIBUTE: matrix}, class_attribute=CLASS_ATTRIBUTE, max_depth=2
    )
    tree = builder.build(disguised, [SENSITIVE_ATTRIBUTE, CONTEXT_ATTRIBUTE])
    print("Decision tree reconstructed from the disguised data (warner:0.45):")
    print_tree(tree, workload)
    print()

    # 3. Evaluate its predictions against the undisguised ground truth.
    predictions = tree.predict(workload.dataset)
    truth = workload.dataset.column(CLASS_ATTRIBUTE)
    accuracy = float(np.mean(predictions == truth))
    majority = float(max(np.mean(truth == 0), np.mean(truth == 1)))
    print(f"Accuracy on the original records: {accuracy:.3f} "
          f"(majority-class baseline: {majority:.3f})")


if __name__ == "__main__":
    main()
