"""Frozen list-based optimal set Ω (the pre-columnar reference).

This module preserves, unchanged, the ``Individual``-per-slot ``OptimalSet``
that :mod:`repro.core.archive` used before Ω moved onto slot-indexed columns:
a ``list[Individual | None]`` beside a slot-utility array, the scalar
:meth:`OptimalSet.offer`/:meth:`OptimalSet.offer_many` path and the
per-member checkpoint bridge.  Nothing in ``src/`` imports it.  The frozen
list-based loop (``tests/oracles/optrr_loop.py``) runs on it, and
``tests/core/test_archive.py`` checks the columnar Ω against it.

Do not "optimise" this module; its value is that it stays put.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.emoo.population import Population
from repro.exceptions import OptimizationError
from repro.utils.arrays import decode_array, encode_array
from repro.utils.validation import check_positive_int
from tests.oracles.individual import Individual, metadata_scalar, non_dominated


def _columnar_metadata(members: list[Individual]) -> dict[str, Any]:
    """Member metadata as columns: numeric/bool columns travel as byte
    arrays, anything else (or ragged keys) falls back to JSON values."""
    keys = list(members[0].metadata)
    if any(list(member.metadata) != keys for member in members):
        return {
            "__rows__": [
                {
                    key: (value.item() if isinstance(value, np.generic) else value)
                    for key, value in member.metadata.items()
                }
                for member in members
            ]
        }
    columns: dict[str, Any] = {}
    for key in keys:
        values = [member.metadata[key] for member in members]
        array = np.asarray(values)
        if array.dtype.kind in "fbiu":
            columns[key] = {"column": encode_array(array)}
        else:
            columns[key] = {
                "values": [
                    value.item() if isinstance(value, np.generic) else value
                    for value in values
                ]
            }
    return columns


def _metadata_rows(document: dict[str, Any], count: int) -> list[dict[str, Any]]:
    """Rebuild per-member metadata dicts from :func:`_columnar_metadata`."""
    if "__rows__" in document:
        return [dict(row) for row in document["__rows__"]]
    columns: dict[str, list[Any]] = {}
    for key, entry in document.items():
        if "column" in entry:
            columns[key] = [metadata_scalar(value) for value in decode_array(entry["column"])]
        else:
            columns[key] = list(entry["values"])
    return [{key: columns[key][row] for key in columns} for row in range(count)]


@dataclass
class OptimalSet:
    """Privacy-indexed store of the best matrices found so far.

    Parameters
    ----------
    size:
        Number of privacy slots (``N_Ω``).  The privacy range ``[0, 1]`` is
        divided uniformly; a matrix with privacy ``p`` lands in slot
        ``floor(p * size)``.
    """

    size: int = 1000

    def __post_init__(self) -> None:
        check_positive_int(self.size, "size")
        self._slots: list[Individual | None] = [None] * self.size
        # Parallel utility array (+inf = empty slot) so whole populations can
        # be pre-filtered against Ω with one vectorized comparison.
        self._utilities = np.full(self.size, np.inf)
        self._n_updates = 0
        # (n_updates, document) pair reused by state_document while Ω is quiet.
        self._state_cache: tuple[int, dict[str, Any]] | None = None

    # -- indexing ------------------------------------------------------------
    def slot_of(self, privacy: float) -> int:
        """Slot index of a privacy value."""
        if not np.isfinite(privacy):
            raise OptimizationError(f"privacy must be finite, got {privacy}")
        index = int(np.floor(np.clip(privacy, 0.0, 1.0) * self.size))
        return min(index, self.size - 1)

    def slots_of(self, privacy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`slot_of` over a privacy array."""
        privacy = np.asarray(privacy, dtype=np.float64)
        if privacy.size and not np.all(np.isfinite(privacy)):
            raise OptimizationError("privacy values must be finite")
        indices = np.floor(np.clip(privacy, 0.0, 1.0) * self.size).astype(np.intp)
        return np.minimum(indices, self.size - 1)

    # -- updates ---------------------------------------------------------------
    def offer(self, individual: Individual) -> bool:
        """Offer a candidate to Ω.

        The candidate must carry ``privacy`` and ``utility`` metadata (set by
        :class:`repro.core.problem.RRMatrixProblem`).  It replaces the current
        occupant of its privacy slot when the slot is empty or the candidate
        has strictly better (lower) utility.  Infeasible candidates are
        ignored.  Returns True when Ω was updated.
        """
        if not individual.feasible:
            return False
        try:
            privacy = float(individual.metadata["privacy"])
            utility = float(individual.metadata["utility"])
        except KeyError as exc:
            raise OptimizationError(
                "individuals offered to the optimal set must carry 'privacy' "
                "and 'utility' metadata"
            ) from exc
        if not np.isfinite(utility):
            return False
        slot = self.slot_of(privacy)
        occupant = self._slots[slot]
        if occupant is None or utility < float(occupant.metadata["utility"]):
            self._slots[slot] = individual.copy()
            self._utilities[slot] = utility
            self._n_updates += 1
            return True
        return False

    def offer_many(self, individuals: list[Individual]) -> int:
        """Offer a batch of candidates; returns the number of accepted updates."""
        return sum(1 for individual in individuals if self.offer(individual))

    def offer_population(
        self,
        population: Population,
        make_individual: Callable[[int], Individual],
    ) -> int:
        """Offer a whole structure-of-arrays population to Ω.

        Candidates are pre-filtered with one vectorized comparison against the
        slot-utility array; only the (few) actual improvements construct an
        ``Individual`` via ``make_individual(row_index)``.  Accept/reject
        decisions and the update count are identical to offering the rows
        sequentially through :meth:`offer`, because slot utilities only ever
        decrease — a candidate losing the vectorized pre-filter would also
        lose the sequential comparison.
        """
        utility = np.asarray(population.metadata["utility"], dtype=np.float64)
        candidates = np.flatnonzero(population.feasible & np.isfinite(utility))
        if candidates.size == 0:
            return 0
        slots = self.slots_of(population.metadata["privacy"][candidates])
        improving = np.flatnonzero(utility[candidates] < self._utilities[slots])
        updates = 0
        for local in improving:
            row = int(candidates[local])
            slot = int(slots[local])
            # Re-check: an earlier row of this batch may have taken the slot
            # with a better utility than the pre-filter snapshot knew about.
            if utility[row] < self._utilities[slot]:
                self._slots[slot] = make_individual(row)
                self._utilities[slot] = utility[row]
                self._n_updates += 1
                updates += 1
        return updates

    # -- checkpointing ---------------------------------------------------------
    def state_document(self) -> dict[str, Any]:
        """Serialize Ω bit-exactly for a ``checkpoint`` document.

        Occupied slots are stacked into columnar arrays (one base64 byte
        array for all genomes, one per objective/metadata column) so
        serializing a full 1000-slot Ω stays off the per-generation hot
        path; metadata columns with a numeric/bool dtype travel as byte
        arrays, anything else falls back to a JSON value list.  The document
        is cached keyed by :attr:`n_updates` — Ω only changes through
        accepted offers, so checkpoints taken while Ω is quiet reuse the
        previous serialization for free.  Genomes must expose
        ``probabilities`` — Ω is the paper's RR-specific structure and only
        ever stores RR matrices.
        """
        cached = getattr(self, "_state_cache", None)
        if cached is not None and cached[0] == self._n_updates:
            return cached[1]
        occupied = [
            (slot, member) for slot, member in enumerate(self._slots) if member is not None
        ]
        document: dict[str, Any] = {
            "size": self.size,
            "n_updates": self._n_updates,
            "slots": [slot for slot, _ in occupied],
        }
        if occupied:
            members = [member for _, member in occupied]
            first = np.asarray(members[0].genome.probabilities)
            genomes = np.empty((len(members), *first.shape))
            for row, member in enumerate(members):
                genomes[row] = member.genome.probabilities
            document["genomes"] = encode_array(genomes)
            document["objectives"] = encode_array(
                np.stack([member.objectives for member in members])
            )
            document["feasible"] = encode_array(
                np.array([member.feasible for member in members], dtype=bool)
            )
            document["metadata"] = _columnar_metadata(members)
        self._state_cache = (self._n_updates, document)
        return document

    def restore_state(
        self, document: dict[str, Any], genome_builder: Callable[[np.ndarray], Any]
    ) -> None:
        """Restore the state captured by :meth:`state_document`.

        ``genome_builder`` rebuilds a genome object from one stacked genome
        row (the RR path passes :meth:`repro.rr.matrix.RRMatrix.
        from_validated`).  The per-slot utility array is rebuilt from the
        restored members, so the vectorized Ω pre-filter behaves identically
        after a resume.
        """
        if int(document["size"]) != self.size:
            raise OptimizationError(
                f"checkpointed optimal set has {document['size']} slots, this one {self.size}"
            )
        self._slots = [None] * self.size
        self._utilities = np.full(self.size, np.inf)
        self._n_updates = int(document.get("n_updates", 0))
        self._state_cache = None
        slots = document.get("slots", [])
        if not slots:
            return
        genomes = decode_array(document["genomes"])
        objectives = decode_array(document["objectives"])
        feasible = decode_array(document["feasible"])
        metadata = _metadata_rows(document.get("metadata", {}), len(slots))
        for row, slot in enumerate(slots):
            slot = int(slot)
            member = Individual(
                genome=genome_builder(genomes[row]),
                objectives=objectives[row].copy(),
                feasible=bool(feasible[row]),
                metadata=metadata[row],
            )
            self._slots[slot] = member
            self._utilities[slot] = float(member.metadata["utility"])

    def slot_utilities(self) -> np.ndarray:
        """Read-only view of the per-slot utilities (+inf = empty slot)."""
        view = self._utilities.view()
        view.flags.writeable = False
        return view

    def best_for_slot(self, slot: int) -> Individual | None:
        """Current occupant of ``slot`` (None when empty)."""
        if not 0 <= slot < self.size:
            raise OptimizationError(f"slot {slot} out of range [0, {self.size})")
        return self._slots[slot]

    # -- views ------------------------------------------------------------------
    @property
    def n_updates(self) -> int:
        """Total number of accepted updates since creation."""
        return self._n_updates

    @property
    def n_occupied(self) -> int:
        """Number of non-empty slots."""
        return sum(1 for slot in self._slots if slot is not None)

    def members(self) -> list[Individual]:
        """All stored individuals, ordered by privacy slot."""
        return [slot for slot in self._slots if slot is not None]

    def pareto_members(self) -> list[Individual]:
        """The non-dominated subset of the stored individuals."""
        return non_dominated(self.members())

    def __len__(self) -> int:
        return self.n_occupied

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.members())

    def best_utility_for_privacy(self, min_privacy: float) -> Individual | None:
        """Best-utility member whose privacy is at least ``min_privacy``.

        This is the user-facing query the paper motivates Ω with: "give me the
        most useful matrix that achieves at least this much privacy".
        """
        candidates = [
            member
            for member in self.members()
            if float(member.metadata["privacy"]) >= min_privacy
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda member: float(member.metadata["utility"]))

    def best_privacy_for_utility(self, max_utility: float) -> Individual | None:
        """Best-privacy member whose utility (MSE) is at most ``max_utility``."""
        candidates = [
            member
            for member in self.members()
            if float(member.metadata["utility"]) <= max_utility
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda member: float(member.metadata["privacy"]))
