"""Pareto fronts in (privacy, utility) space: :class:`ParetoFront` and
:class:`FrontRow`, defined with the optimizer result in
:mod:`repro.core.result` and re-exported here for the analysis layer."""

from repro.core.result import FrontRow, ParetoFront

__all__ = ["FrontRow", "ParetoFront"]
