"""Deterministic fault injection for chaos-testing the execution substrate.

The resilience guarantees of the grid/campaign/pipeline executors — retry,
timeout-and-kill, poison-cell quarantine, corruption-tolerant resume — are
only real if they can be *demonstrated*, reproducibly.  This package injects
worker crashes, hangs, transient ``OSError``\\ s and corrupted cache/checkpoint
state at chosen grid coordinates, driven by a seeded :class:`FaultPlan` that
makes every chaos run bit-for-bit repeatable.

Activate a plan programmatically (:func:`fault_plan` /
:func:`install_fault_plan`) or through the ``REPRO_FAULTS`` environment
variable, whose grammar is documented in :mod:`repro.faults.plan` and
``docs/robustness.md``.  Fault hooks are no-ops when no plan is active.
"""
