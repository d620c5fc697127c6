"""Categorical probability distributions.

A :class:`CategoricalDistribution` represents the prior ``P(X)`` over the
domain ``C = {c_1, ..., c_n}`` of a sensitive attribute.  It is the central
input to both the privacy metric (which needs the prior for the Bayes/MAP
adversary) and the utility metric (which needs the disguised distribution
``P* = M P``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import DataError
from repro.types import SeedLike, as_rng
from repro.utils.validation import check_probability_vector, normalize_probabilities


@dataclass(frozen=True)
class CategoricalDistribution:
    """A probability distribution over ``n`` named categories.

    Parameters
    ----------
    probabilities:
        Probability of each category; must sum to one.
    categories:
        Optional category labels.  Defaults to ``c1 ... cn``.
    """

    probabilities: np.ndarray
    categories: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        probs = check_probability_vector(self.probabilities, "probabilities")
        object.__setattr__(self, "probabilities", probs)
        if not self.categories:
            labels = tuple(f"c{i + 1}" for i in range(probs.size))
            object.__setattr__(self, "categories", labels)
        else:
            labels = tuple(str(label) for label in self.categories)
            if len(labels) != probs.size:
                raise DataError(
                    f"expected {probs.size} category labels, got {len(labels)}"
                )
            if len(set(labels)) != len(labels):
                raise DataError("category labels must be unique")
            object.__setattr__(self, "categories", labels)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_weights(
        cls,
        weights: Sequence[float] | np.ndarray,
        categories: Sequence[str] | None = None,
    ) -> "CategoricalDistribution":
        """Build a distribution from non-negative, not-necessarily-normalised
        weights."""
        probs = normalize_probabilities(weights, "weights")
        return cls(probs, tuple(categories) if categories else ())

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[str, float] | Sequence[float],
        categories: Sequence[str] | None = None,
    ) -> "CategoricalDistribution":
        """Build a distribution from a count mapping or count sequence."""
        if isinstance(counts, Mapping):
            labels = tuple(str(key) for key in counts)
            weights = np.asarray([counts[key] for key in counts], dtype=np.float64)
            return cls.from_weights(weights, labels)
        return cls.from_weights(np.asarray(counts, dtype=np.float64), categories)

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[int] | np.ndarray,
        n_categories: int,
        categories: Sequence[str] | None = None,
    ) -> "CategoricalDistribution":
        """Build the empirical distribution of integer-coded ``samples``."""
        values = np.asarray(samples, dtype=np.int64)
        if values.size == 0:
            raise DataError("samples must not be empty")
        if values.min() < 0 or values.max() >= n_categories:
            raise DataError(
                f"samples must be codes in [0, {n_categories}), "
                f"got range [{values.min()}, {values.max()}]"
            )
        counts = np.bincount(values, minlength=n_categories).astype(np.float64)
        return cls.from_weights(counts, categories)

    @classmethod
    def uniform(cls, n_categories: int) -> "CategoricalDistribution":
        """The discrete uniform distribution over ``n_categories`` values."""
        if n_categories <= 0:
            raise DataError("n_categories must be positive")
        return cls(np.full(n_categories, 1.0 / n_categories))

    # -- basic protocol ----------------------------------------------------
    @property
    def n_categories(self) -> int:
        """Number of categories in the domain."""
        return int(self.probabilities.size)

    def __len__(self) -> int:
        return self.n_categories

    def __iter__(self) -> Iterator[float]:
        return iter(self.probabilities.tolist())

    def __getitem__(self, index: int) -> float:
        return float(self.probabilities[index])

    def as_array(self) -> np.ndarray:
        """Return a copy of the probability vector."""
        return self.probabilities.copy()

    def as_dict(self) -> dict[str, float]:
        """Return a ``{category: probability}`` mapping."""
        return dict(zip(self.categories, self.probabilities.tolist()))

    # -- statistics --------------------------------------------------------
    @property
    def max_probability(self) -> float:
        """The largest category probability (lower bound on any privacy
        bound ``delta`` by Theorem 5)."""
        return float(self.probabilities.max())

    @property
    def mode(self) -> int:
        """Index of the most probable category."""
        return int(np.argmax(self.probabilities))

    def entropy(self) -> float:
        """Shannon entropy of the distribution in nats."""
        probs = self.probabilities[self.probabilities > 0]
        return float(-(probs * np.log(probs)).sum())

    def total_variation(self, other: "CategoricalDistribution") -> float:
        """Total-variation distance to ``other`` (same domain size)."""
        self._check_compatible(other)
        return float(0.5 * np.abs(self.probabilities - other.probabilities).sum())

    def mean_squared_error(self, other: "CategoricalDistribution") -> float:
        """Mean squared error between the two probability vectors."""
        self._check_compatible(other)
        return float(np.mean((self.probabilities - other.probabilities) ** 2))

    def kl_divergence(self, other: "CategoricalDistribution") -> float:
        """Kullback-Leibler divergence ``KL(self || other)`` in nats."""
        self._check_compatible(other)
        p = self.probabilities
        q = other.probabilities
        mask = p > 0
        if np.any(q[mask] == 0):
            return float("inf")
        return float((p[mask] * np.log(p[mask] / q[mask])).sum())

    def _check_compatible(self, other: "CategoricalDistribution") -> None:
        if self.n_categories != other.n_categories:
            raise DataError(
                "distributions have different domain sizes: "
                f"{self.n_categories} vs {other.n_categories}"
            )

    # -- sampling ----------------------------------------------------------
    def sample(self, n_records: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``n_records`` integer-coded samples from the distribution."""
        if n_records <= 0:
            raise DataError("n_records must be positive")
        rng = as_rng(seed)
        return rng.choice(self.n_categories, size=n_records, p=self.probabilities)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(
            f"{label}={prob:.4f}" for label, prob in zip(self.categories, self.probabilities)
        )
        return f"CategoricalDistribution({pairs})"


def prior_probabilities(
    prior: CategoricalDistribution | Sequence[float] | np.ndarray,
) -> np.ndarray:
    """The validated ``float64`` probability vector of ``prior``.

    A :class:`CategoricalDistribution` was validated when it was built, so
    its :attr:`~CategoricalDistribution.probabilities` come back as they
    are; any other value is checked (and clipped) by
    :func:`~repro.utils.validation.check_probability_vector`, once, here.
    The batched kernels take the vector this returns and never re-validate
    it.
    """
    if isinstance(prior, CategoricalDistribution):
        return prior.probabilities
    return check_probability_vector(prior, "prior")
