"""RL002 — wall-clock and other nondeterminism sources.

A reproducible run may not observe the environment: wall-clock reads,
OS-entropy draws and UUIDs all make two identical invocations diverge.  The
only sanctioned optimizer timing site is the stepwise driver, which
*measures* elapsed wall time (it rides the checkpoint as data) and checks
the stopping rule's deadline against it — allowlisted by path below, next
to the process pool's cell timeouts.  Everywhere else under ``src/repro``,
in the analyzer's own ``tools/lintkit`` and in the ablation baselines
(``benchmarks/baselines``), timing belongs in
the benchmark harness and entropy belongs to the seeded Generator channel
(RL001).
"""

from __future__ import annotations

import ast
from typing import Iterable

from lintkit.model import ProjectContext, SourceFile, Violation
from lintkit.registry import Rule, register
from lintkit.rules.rng import _dotted

#: Files allowed to read the wall clock: the driver measures elapsed time
#: (checkpointed as data) and enforces the deadline with it, and the
#: kill-and-replace process runner needs monotonic deadlines for cell
#: timeouts and backoff scheduling (none of which can reach a result
#: document).
ALLOWED_TIMING_FILES = frozenset(
    {
        "src/repro/emoo/driver.py",
        "src/repro/experiments/procpool.py",
    }
)

#: Dotted call names that read the clock or the OS entropy pool.
BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: from-import leaves that smuggle a banned callable in under a bare name.
BANNED_FROM_IMPORTS = {
    "time": frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
    ),
    "os": frozenset({"urandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}


@register
class WallClockRule(Rule):
    rule_id = "RL002"
    name = "wall-clock"
    description = (
        "wall-clock reads, OS entropy and UUIDs are banned outside the "
        "allowlisted driver/process-pool timing sites"
    )
    scopes = ("src/repro", "tools/lintkit", "benchmarks/baselines")

    def check_file(
        self, source: SourceFile, project: ProjectContext
    ) -> Iterable[Violation]:
        if source.relpath in ALLOWED_TIMING_FILES:
            return ()
        suffix = (
            "; timing belongs to the driver (src/repro/emoo/driver.py), "
            "entropy to the seeded Generator channel"
        )
        violations: list[Violation] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in BANNED_CALLS:
                    violations.append(
                        self.violation(
                            source,
                            node,
                            f"nondeterminism source `{dotted}()`{suffix}",
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                banned = BANNED_FROM_IMPORTS.get(node.module or "")
                if banned:
                    for alias in node.names:
                        if alias.name in banned:
                            violations.append(
                                self.violation(
                                    source,
                                    node,
                                    f"`from {node.module} import {alias.name}` "
                                    f"smuggles a nondeterminism source in "
                                    f"under a bare name{suffix}",
                                )
                            )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "secrets":
                        violations.append(
                            self.violation(
                                source,
                                node,
                                f"the `secrets` module is OS entropy by "
                                f"design{suffix}",
                            )
                        )
        return violations
