"""RL005 — ordering hazards.

Set iteration order depends on the hash seed and insertion history, and
"first match wins" scans over ``dict.values()``/``dict.keys()`` views bake
the dict's construction order into the result.  In the optimizer hot paths
(``src/repro/emoo``, ``src/repro/core`` and the ablation baselines in
``benchmarks/baselines``) such an order leak silently breaks
the bit-for-bit trajectory and kill/resume guarantees.  Flagged patterns:

* a ``for`` loop or comprehension iterating *directly* over a set literal,
  set comprehension, or ``set(...)``/``frozenset(...)`` call;
* ``next(...)`` consuming a generator over ``.values()``/``.keys()`` or a
  set expression — a first-match selection over an unordered (or
  construction-ordered) view.

Wrapping the iterable in ``sorted(...)`` resolves either; where the
construction order is provably deterministic and intentional, a
``# repro-lint: allow[ordering-hazard]`` pragma with a justification
records that argument next to the code.
"""

from __future__ import annotations

import ast
from typing import Iterable

from lintkit.model import ProjectContext, SourceFile, Violation
from lintkit.registry import Rule, register
from lintkit.rules.rng import _dotted


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        return dotted in ("set", "frozenset")
    return False


def _is_view_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys")
        and not node.args
        and not node.keywords
    )


@register
class OrderingHazardRule(Rule):
    rule_id = "RL005"
    name = "ordering-hazard"
    description = (
        "iteration over sets (and first-match scans over dict views) in the "
        "optimizer hot paths must go through sorted(...)"
    )
    scopes = ("src/repro/emoo", "src/repro/core", "benchmarks/baselines")

    def check_file(
        self, source: SourceFile, project: ProjectContext
    ) -> Iterable[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(source.tree):
            iterables: list[ast.expr] = []
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(generator.iter for generator in node.generators)
            for iterable in iterables:
                if _is_set_expression(iterable):
                    violations.append(
                        self.violation(
                            source,
                            iterable,
                            "iteration directly over a set: set order depends "
                            "on the hash seed — wrap it in sorted(...)",
                        )
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "next"
                and node.args
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                for generator in node.args[0].generators:
                    if _is_view_call(generator.iter) or _is_set_expression(generator.iter):
                        violations.append(
                            self.violation(
                                source,
                                generator.iter,
                                "first-match next(...) over an unordered/"
                                "construction-ordered view: sort the iterable "
                                "or justify the ordering with a pragma",
                            )
                        )
        return violations
