"""The repro-lint rule set.

Importing a rule module registers its rule (:func:`lintkit.registry.
all_rules` imports them all); the ids are stable and documented in
``docs/invariants.md``:

* RL001 ``rng-discipline`` — seeded-Generator-only randomness
* RL002 ``wall-clock`` — no nondeterminism sources outside the timing sites
* RL003 ``checkpoint-symmetry`` — state_document/restore_state pairing + keys
* RL004 ``cache-key-completeness`` — overrides materialized into cache keys
* RL005 ``ordering-hazard`` — no unordered iteration in optimizer hot paths
* RL006 ``linalg-confinement`` — ``numpy.linalg`` only in
  ``repro.utils.linalg``
* RL007 ``exception-discipline`` — broad except handlers must re-raise, log,
  or use the caught exception
"""
