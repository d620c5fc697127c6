"""Parametric RR scheme families.

The baseline in the paper's evaluation sweeps the Warner retention
probability ``p`` from 0 to 1 in steps of 0.001 (1001 matrices), evaluates
privacy and utility for each, removes dominated solutions and plots the
resulting Pareto front.  A :class:`SchemeFamily` encapsulates such a sweep for
each of the three classic schemes so the baseline front is one call away.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.rr import schemes
from repro.rr.matrix import RRMatrix
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class SchemeFamily(ABC):
    """A one-parameter family of RR matrices.

    Sub-classes provide the parameter grid and the stack constructor
    :meth:`matrices` sweeps the grid with; :meth:`matrix` is one row of it.
    """

    n_categories: int

    def __post_init__(self) -> None:
        check_positive_int(self.n_categories, "n_categories")
        if self.n_categories < 2:
            raise ValidationError("scheme families need at least two categories")

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable family name."""

    @abstractmethod
    def parameter_grid(self, n_points: int) -> np.ndarray:
        """Return ``n_points`` parameter values covering the family."""

    @abstractmethod
    def stack(self, parameters: np.ndarray) -> np.ndarray:
        """Validated ``(S, n, n)`` stack of the members for ``parameters``."""

    def matrix(self, parameter: float) -> RRMatrix:
        """The family member for ``parameter`` (row 0 of a one-row stack)."""
        return RRMatrix.from_validated(self.stack(np.array([parameter]))[0])

    def matrices(self, n_points: int = 1001) -> np.ndarray:
        """The family on an ``n_points`` grid as one validated ``(n_points,
        n, n)`` stack (default matches the paper's 1001-step Warner sweep)."""
        return self.stack(self.parameter_grid(n_points))


@dataclass(frozen=True)
class WarnerFamily(SchemeFamily):
    """Warner matrices swept over the retention probability ``p``."""

    @property
    def name(self) -> str:
        return "warner"

    def parameter_grid(self, n_points: int) -> np.ndarray:
        check_positive_int(n_points, "n_points")
        return np.linspace(0.0, 1.0, n_points)

    def stack(self, parameters: np.ndarray) -> np.ndarray:
        return schemes.warner_stack(self.n_categories, parameters)


@dataclass(frozen=True)
class UniformPerturbationFamily(SchemeFamily):
    """Uniform Perturbation matrices swept over the retention probability
    ``q``."""

    @property
    def name(self) -> str:
        return "uniform-perturbation"

    def parameter_grid(self, n_points: int) -> np.ndarray:
        check_positive_int(n_points, "n_points")
        return np.linspace(0.0, 1.0, n_points)

    def stack(self, parameters: np.ndarray) -> np.ndarray:
        return schemes.uniform_perturbation_stack(self.n_categories, parameters)


@dataclass(frozen=True)
class FrappFamily(SchemeFamily):
    """FRAPP matrices swept over the amplification parameter ``gamma``.

    The grid is chosen so that the induced diagonal value covers the same
    ``[1/n, 1]`` range as the Warner sweep: ``gamma = 1`` is total
    randomization and large ``gamma`` approaches the identity.
    """

    #: Largest gamma included in the sweep; the induced diagonal is
    #: ``gamma_max / (gamma_max + n - 1)`` which is close to 1.
    gamma_max: float = 1e4

    @property
    def name(self) -> str:
        return "frapp"

    def parameter_grid(self, n_points: int) -> np.ndarray:
        check_positive_int(n_points, "n_points")
        # Sample uniformly in the induced diagonal value, then map back to
        # gamma, so the front is sampled as densely as the Warner sweep.
        n = self.n_categories
        diagonal_max = self.gamma_max / (self.gamma_max + n - 1)
        diagonals = np.linspace(1.0 / n, diagonal_max, n_points)
        diagonals = np.clip(diagonals, 1.0 / n, 1.0 - 1e-12)
        return diagonals * (n - 1) / (1.0 - diagonals)

    def stack(self, parameters: np.ndarray) -> np.ndarray:
        return schemes.frapp_stack(self.n_categories, parameters)


_FAMILIES = {
    "warner": WarnerFamily,
    "uniform-perturbation": UniformPerturbationFamily,
    "up": UniformPerturbationFamily,
    "frapp": FrappFamily,
}


def scheme_family(name: str, n_categories: int) -> SchemeFamily:
    """Look up a scheme family by name (``warner``, ``up``, ``frapp``)."""
    try:
        factory = _FAMILIES[name.lower()]
    except KeyError as exc:
        raise ValidationError(
            f"unknown scheme family {name!r}; available: {sorted(set(_FAMILIES))}"
        ) from exc
    return factory(n_categories)


def scheme_matrix(argument: str, n_categories: int) -> RRMatrix:
    """The matrix named by a ``family:parameter`` scheme argument.

    ``family`` is one of the classic scheme families (``warner``,
    ``up``/``uniform-perturbation``, ``frapp``) and ``parameter`` the
    family's sweep parameter, e.g. ``warner:0.8``.
    """
    if ":" not in argument:
        raise ValidationError(
            f"scheme {argument!r} must have the form family:parameter "
            f"(e.g. warner:0.8)"
        )
    family_name, parameter_text = argument.split(":", 1)
    try:
        parameter = float(parameter_text)
    except ValueError as exc:
        raise ValidationError(
            f"scheme parameter {parameter_text!r} in {argument!r} is not a number"
        ) from exc
    return scheme_family(family_name, n_categories).matrix(parameter)


def family_names() -> Sequence[str]:
    """Canonical names of the available families."""
    return ("warner", "uniform-perturbation", "frapp")
