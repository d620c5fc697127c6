#!/usr/bin/env python
"""repro-lint entry point: AST invariant analyzer for the repo's contracts.

Thin wrapper around :mod:`lintkit.runner` (``tools/lintkit``, which Python
finds because a script's own directory heads ``sys.path``).  Run from the
repository root::

    python tools/lint_repro.py                  # whole tree, committed baseline
    python tools/lint_repro.py src/repro/emoo   # a subtree
    python tools/lint_repro.py --list-rules
    python tools/lint_repro.py --write-baseline # snapshot current violations

Rule ids, the ``# repro-lint: allow[<rule>]`` pragma syntax and the
baseline workflow are documented in ``docs/invariants.md``.  CI runs this
with ``--forbid-baseline``, so committed baseline entries fail the gate.

Exit code 0 clean, 1 violations (or stale/unjustified/forbidden baseline
entries), 2 usage errors.
"""

from __future__ import annotations

from lintkit.runner import main

if __name__ == "__main__":
    raise SystemExit(main())
