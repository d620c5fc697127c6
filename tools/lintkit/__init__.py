"""repro-lint: AST invariant analyzer for the reproduction's contracts.

The repo's production claims rest on invariants that used to be enforced
only dynamically (and expensively): seeded-Generator-only randomness,
wall-clock isolation, bit-identical kill/resume, complete cache keys, and
order-stable optimizer hot paths.  This package checks their static halves
at lint time — rule ids, the pragma syntax and the baseline workflow are
documented in ``docs/invariants.md``.

Entry point: ``tools/lint_repro.py``.  Python puts a script's own directory,
here ``tools/``, on ``sys.path``, so this package imports as ``lintkit``.
"""
