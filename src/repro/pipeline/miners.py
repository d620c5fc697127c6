"""Miner registry for the downstream-mining pipeline.

A *miner* measures how much of one data-mining task survives the RR
disguise: it receives the clean workload, the disguised dataset and the RR
matrix the disguise used, runs the task on the disguised data (reconstructing
distributions where needed), runs the same task on the clean data as the
reference, and returns a flat ``{metric: float}`` mapping.

Three miners ship with the library:

``tree``
    Decision-tree accuracy (Du & Zhan-style reconstruction-based splits):
    a tree built from the disguised data is scored on the original records
    against a tree built from the clean data.
``rules``
    Association-rule precision/recall at a support threshold: the rule set
    mined from the disguised data is compared against the clean rule set.
``distribution``
    Distribution reconstruction error: L1/L2/MSE distance between the
    reconstructed sensitive-attribute distribution and the clean sample
    distribution.

Adding a miner is one :func:`register_miner` call — see ``docs/pipeline.md``.
Every miner must be **deterministic**: its metrics may depend only on its
inputs (the pipeline's caching and cross-worker byte-determinism guarantees
rely on this), so a miner must not draw from any global random source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.data.workload import (
    CLASS_ATTRIBUTE,
    CONTEXT_ATTRIBUTE,
    SENSITIVE_ATTRIBUTE,
    MiningWorkload,
)
from repro.data.dataset import CategoricalDataset
from repro.exceptions import ValidationError
from repro.mining.association import AssociationMiner, AssociationRule
from repro.mining.decision_tree import DecisionTreeBuilder, DecisionTreeNode
from repro.rr.estimation import estimate_distribution
from repro.rr.matrix import RRMatrix

#: Signature of a miner implementation.
MinerFunction = Callable[
    [MiningWorkload, CategoricalDataset, RRMatrix, Mapping[str, Any]],
    dict[str, float],
]


@dataclass(frozen=True)
class Miner:
    """One registered miner: its name, implementation and default parameters."""

    name: str
    description: str
    run: MinerFunction
    default_params: tuple[tuple[str, Any], ...] = ()

    def effective_params(self, overrides: Mapping[str, Any] | None) -> dict[str, Any]:
        """Default parameters merged with ``overrides``.

        Unknown keys and values that cannot be coerced to the default's type
        raise :class:`ValidationError` (so CLI misuse surfaces as a usage
        error, never a traceback).
        """
        params = dict(self.default_params)
        for key, value in (overrides or {}).items():
            if key not in params:
                raise ValidationError(
                    f"miner {self.name!r} does not accept parameter {key!r}; "
                    f"accepted: {sorted(params) or '(none)'}"
                )
            try:
                params[key] = type(params[key])(value)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"miner {self.name!r} parameter {key!r} expects a "
                    f"{type(params[key]).__name__}, got {value!r}"
                ) from exc
        return params


_MINERS: dict[str, Miner] = {}

#: Alias → canonical miner name.
_ALIASES = {"dist": "distribution", "tree": "tree", "rules": "rules"}


def register_miner(miner: Miner) -> Miner:
    """Register a miner (name must be unique)."""
    if miner.name in _MINERS:
        raise ValidationError(f"miner {miner.name!r} is already registered")
    _MINERS[miner.name] = miner
    return miner


def get_miner(name: str) -> Miner:
    """Look up a miner by name or alias."""
    canonical = _ALIASES.get(name, name)
    try:
        return _MINERS[canonical]
    except KeyError as exc:
        raise ValidationError(
            f"unknown miner {name!r}; available: {sorted(_MINERS)}"
        ) from exc


def available_miners() -> tuple[str, ...]:
    """Names of all registered miners, sorted."""
    return tuple(sorted(_MINERS))


# -- the built-in miners -----------------------------------------------------

#: Per-process memo of clean-reference computations.  The clean baseline of a
#: miner depends only on the workload and the miner parameters — not on the
#: scheme — so a pipeline sweeping S schemes would otherwise recompute the
#: identical clean tree/rule set S times per (seed, miner).  The values are
#: pure functions of their key, so memoization cannot affect determinism.
_CLEAN_BASELINE_CACHE: dict[tuple, Any] = {}
_CLEAN_BASELINE_CACHE_LIMIT = 64


def _clean_baseline(key: tuple, compute: Callable[[], Any]) -> Any:
    if key not in _CLEAN_BASELINE_CACHE:
        if len(_CLEAN_BASELINE_CACHE) >= _CLEAN_BASELINE_CACHE_LIMIT:
            _CLEAN_BASELINE_CACHE.clear()
        _CLEAN_BASELINE_CACHE[key] = compute()
    return _CLEAN_BASELINE_CACHE[key]


def _workload_key(workload: MiningWorkload) -> tuple:
    return (workload.data, workload.n_categories, workload.n_records, workload.seed)


def _predict_accuracy(tree: DecisionTreeNode, dataset: CategoricalDataset) -> float:
    """Accuracy of ``tree`` on the (clean) records of ``dataset``."""
    return float(np.mean(tree.predict(dataset) == dataset.column(CLASS_ATTRIBUTE)))


def _run_tree_miner(
    workload: MiningWorkload,
    disguised: CategoricalDataset,
    matrix: RRMatrix,
    params: Mapping[str, Any],
) -> dict[str, float]:
    builder_options = dict(
        class_attribute=CLASS_ATTRIBUTE,
        max_depth=int(params["max_depth"]),
        min_information_gain=float(params["min_information_gain"]),
    )
    candidates = [SENSITIVE_ATTRIBUTE, CONTEXT_ATTRIBUTE]

    def compute_clean_reference() -> tuple[float, float]:
        clean_tree = DecisionTreeBuilder({}, **builder_options).build(
            workload.dataset, candidates
        )
        truth = workload.dataset.column(CLASS_ATTRIBUTE)
        return (
            _predict_accuracy(clean_tree, workload.dataset),
            float(max(np.mean(truth == code) for code in (0, 1))),
        )

    clean_accuracy, majority = _clean_baseline(
        ("tree", *_workload_key(workload), *sorted(builder_options.items())),
        compute_clean_reference,
    )
    disguised_tree = DecisionTreeBuilder(
        {SENSITIVE_ATTRIBUTE: matrix}, **builder_options
    ).build(disguised, candidates)
    # Both trees are scored on the original records: the question is how much
    # *classification* utility the reconstruction preserved, so the test set
    # must be identical for both.
    accuracy = _predict_accuracy(disguised_tree, workload.dataset)
    return {
        "accuracy": accuracy,
        "clean_accuracy": clean_accuracy,
        "accuracy_ratio": accuracy / clean_accuracy if clean_accuracy > 0 else 0.0,
        "majority_baseline": majority,
        "n_nodes": float(disguised_tree.count_nodes()),
    }


def _rule_key(rule: AssociationRule) -> tuple:
    return (rule.antecedent, rule.consequent)


def _run_rules_miner(
    workload: MiningWorkload,
    disguised: CategoricalDataset,
    matrix: RRMatrix,
    params: Mapping[str, Any],
) -> dict[str, float]:
    miner_options = dict(
        min_support=float(params["min_support"]),
        min_confidence=float(params["min_confidence"]),
        max_itemset_size=int(params["max_itemset_size"]),
    )
    attributes = (SENSITIVE_ATTRIBUTE, CONTEXT_ATTRIBUTE, CLASS_ATTRIBUTE)

    def compute_clean_rule_keys() -> frozenset:
        clean_rules = AssociationMiner({}, **miner_options).mine_rules(
            workload.dataset, attributes
        )
        return frozenset(_rule_key(rule) for rule in clean_rules)

    clean_keys = _clean_baseline(
        ("rules", *_workload_key(workload), *sorted(miner_options.items())),
        compute_clean_rule_keys,
    )
    disguised_rules = AssociationMiner(
        {SENSITIVE_ATTRIBUTE: matrix}, **miner_options
    ).mine_rules(disguised, attributes)
    mined_keys = {_rule_key(rule) for rule in disguised_rules}
    hits = len(clean_keys & mined_keys)
    precision = hits / len(mined_keys) if mined_keys else 1.0
    recall = hits / len(clean_keys) if clean_keys else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {
        "precision": float(precision),
        "recall": float(recall),
        "f1": float(f1),
        "n_rules": float(len(mined_keys)),
        "n_clean_rules": float(len(clean_keys)),
    }


def _run_distribution_miner(
    workload: MiningWorkload,
    disguised: CategoricalDataset,
    matrix: RRMatrix,
    params: Mapping[str, Any],
) -> dict[str, float]:
    estimate = estimate_distribution(
        disguised.column(SENSITIVE_ATTRIBUTE), matrix, method=str(params["method"])
    )
    truth = workload.dataset.distribution(SENSITIVE_ATTRIBUTE).probabilities
    errors = estimate.probabilities - truth
    return {
        "l1_error": float(np.abs(errors).sum()),
        "l2_error": float(np.sqrt(np.square(errors).sum())),
        "mse": float(np.mean(np.square(errors))),
    }


register_miner(
    Miner(
        name="tree",
        description="decision-tree accuracy on reconstructed splits vs a clean-trained tree",
        run=_run_tree_miner,
        default_params=(("max_depth", 3), ("min_information_gain", 1e-3)),
    )
)
register_miner(
    Miner(
        name="rules",
        description="association-rule precision/recall at a support threshold",
        run=_run_rules_miner,
        default_params=(
            ("min_support", 0.05),
            ("min_confidence", 0.5),
            ("max_itemset_size", 2),
        ),
    )
)
register_miner(
    Miner(
        name="distribution",
        description="L1/L2/MSE reconstruction error of the sensitive-attribute distribution",
        run=_run_distribution_miner,
        default_params=(("method", "inversion"),),
    )
)
