"""RL001 — RNG discipline.

Every random draw in the library must flow through a seeded
:class:`numpy.random.Generator` threaded down from the caller — that is the
repo's only sanctioned randomness channel, and the reason seeded runs are
bit-for-bit reproducible (and kill/resume-safe: the bit-generator state
rides the checkpoint).  This rule flags the three ways code escapes that
channel:

* the legacy ``np.random.*`` global-state API (``np.random.seed``,
  ``np.random.rand``, ``RandomState``, ...) — global state is invisible to
  the checkpoint codec and shared across call sites;
* ``default_rng()`` called without a seed — a fresh OS-entropy generator on
  every call;
* the stdlib :mod:`random` module — separate global state with no
  Generator-typed handle to thread.
"""

from __future__ import annotations

import ast
from typing import Iterable

from lintkit.model import ProjectContext, SourceFile, Violation
from lintkit.registry import Rule, register

#: numpy.random attributes that belong to the sanctioned Generator API.
ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: Dotted prefixes that resolve to the numpy.random namespace in this repo.
_NP_RANDOM_PREFIXES = ("np.random", "numpy.random")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@register
class RngDisciplineRule(Rule):
    rule_id = "RL001"
    name = "rng-discipline"
    description = (
        "randomness must flow through a seeded np.random.Generator parameter; "
        "legacy np.random globals, unseeded default_rng() and the stdlib "
        "random module are banned"
    )
    scopes = ("src/repro", "tools/lintkit", "benchmarks/baselines", "examples")

    def check_file(
        self, source: SourceFile, project: ProjectContext
    ) -> Iterable[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        violations.append(
                            self.violation(
                                source,
                                node,
                                "stdlib `random` is banned: thread a seeded "
                                "np.random.Generator parameter instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    violations.append(
                        self.violation(
                            source,
                            node,
                            "stdlib `random` is banned: thread a seeded "
                            "np.random.Generator parameter instead",
                        )
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in ALLOWED_NP_RANDOM:
                            violations.append(
                                self.violation(
                                    source,
                                    node,
                                    f"legacy numpy.random API "
                                    f"`{alias.name}` imported: only the "
                                    f"Generator API "
                                    f"({', '.join(sorted(ALLOWED_NP_RANDOM))}) "
                                    f"is sanctioned",
                                )
                            )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node.value)
                if dotted in _NP_RANDOM_PREFIXES and node.attr not in ALLOWED_NP_RANDOM:
                    violations.append(
                        self.violation(
                            source,
                            node,
                            f"legacy global-state API `{dotted}.{node.attr}`: "
                            "use a seeded np.random.Generator threaded from "
                            "the caller",
                        )
                    )
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if (
                    dotted in ("default_rng", "np.random.default_rng", "numpy.random.default_rng")
                    and not node.args
                    and not node.keywords
                ):
                    violations.append(
                        self.violation(
                            source,
                            node,
                            "unseeded default_rng(): every Generator must be "
                            "constructed from an explicit seed",
                        )
                    )
        return violations
