"""RL006 — linear-algebra confinement.

Whether a matrix counts as numerically invertible is decided by one rule:
invert via LU and accept the inverse only while the 1-norm condition
estimate stays below the limit (:mod:`repro.utils.linalg`).  Every scalar
and batched caller (evaluation, the estimators, the scalar metrics) goes
through that module, which is what keeps the scalar API and the batch
engine from ever disagreeing about a matrix.

The guarantee collapses as soon as another module calls ``numpy.linalg``
itself: its private inversion skips the condition rule and silently
classifies near-singular matrices differently.  This rule therefore bans
every use of ``numpy.linalg`` under ``src/repro`` (and in the analyzer's
own ``tools/lintkit`` and the ablation baselines, ``benchmarks/baselines``)
outside ``src/repro/utils/linalg.py``:

* attribute access through ``np.linalg`` / ``numpy.linalg``;
* ``import numpy.linalg`` and ``from numpy.linalg import ...``;
* ``from numpy import linalg``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from lintkit.model import ProjectContext, SourceFile, Violation
from lintkit.registry import Rule, register
from lintkit.rules.rng import _dotted

#: The one module allowed to touch ``numpy.linalg``.
LINALG_HOME = "src/repro/utils/linalg.py"

#: Dotted prefixes that resolve to the numpy.linalg namespace in this repo.
_NP_LINALG_PREFIXES = ("np.linalg", "numpy.linalg")


@register
class LinalgConfinementRule(Rule):
    rule_id = "RL006"
    name = "linalg-confinement"
    description = (
        "numpy.linalg is used only in src/repro/utils/linalg.py, so every "
        "inversion shares the one 1-norm condition rule"
    )
    scopes = ("src/repro", "tools/lintkit", "benchmarks/baselines")

    def applies_to(self, relpath: str) -> bool:
        return relpath != LINALG_HOME and super().applies_to(relpath)

    def check_file(
        self, source: SourceFile, project: ProjectContext
    ) -> Iterable[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(source.tree):
            found = None
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node.value)
                if dotted in _NP_LINALG_PREFIXES:
                    found = f"direct `{dotted}.{node.attr}`"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy.linalg" or alias.name.startswith("numpy.linalg."):
                        found = f"`import {alias.name}`"
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "numpy.linalg" or module.startswith("numpy.linalg."):
                    found = f"`from {module} import ...`"
                elif module == "numpy" and any(
                    alias.name == "linalg" for alias in node.names
                ):
                    found = "`from numpy import linalg`"
            if found is not None:
                violations.append(
                    self.violation(
                        source,
                        node,
                        f"{found} outside {LINALG_HOME}; invert through "
                        f"repro.utils.linalg so the shared condition rule applies",
                    )
                )
        return violations
