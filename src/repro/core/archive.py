"""The optimal set Ω (Section V-H of the paper).

SPEA2's archive and population are bounded, so good RR matrices are discarded
when the front gets crowded.  The paper's fix is an additional *optimal set*
Ω: a large array of slots indexed by (discretised) privacy value, each slot
keeping the matrix with the best utility seen so far at that privacy level.
Updating Ω is O(1) per candidate, so its size can be much larger than the
archive without affecting the cubic environmental-selection cost.

Ω is stored exactly that way: a per-slot utility array (+inf = empty) beside
slot-indexed genome, objective and metadata columns, so offers, the reverse
refresh and checkpoints are whole-column operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.emoo.population import Population
from repro.exceptions import OptimizationError, ValidationError
from repro.utils.arrays import decode_array, encode_array
from repro.utils.validation import check_positive_int, check_stochastic_stack

#: Byte budget of the genome rows one offer or refresh gathers at a time
#: (``4 MiB // (8 n^2)`` rows of ``n x n`` float64 matrices: every offer at
#: n <= 22 is one chunk).
_CHUNK_BYTES = 4 * 2**20


@dataclass
class OptimalSet:
    """Privacy-indexed store of the best matrices found so far.

    Parameters
    ----------
    size:
        Number of privacy slots (``N_Ω``).  The privacy range ``[0, 1]`` is
        divided uniformly; a matrix with privacy ``p`` lands in slot
        ``floor(p * size)``.

    Memory: besides its own slot columns, an offer or a refresh holds at
    most one chunk (:data:`_CHUNK_BYTES`) of copied genomes at a time.
    """

    size: int = 1000

    def __post_init__(self) -> None:
        check_positive_int(self.size, "size")
        self._utilities = np.full(self.size, np.inf)
        # Slot-indexed member columns; None until the first accepted offer.
        self._genomes: np.ndarray | None = None
        self._objectives: np.ndarray | None = None
        self._metadata: dict[str, np.ndarray] = {}
        self._n_updates = 0
        # (n_updates, document) pair reused by state_document while Ω is quiet.
        self._state_cache: tuple[int, dict[str, Any]] | None = None

    def slots_of(self, privacy: np.ndarray) -> np.ndarray:
        """Slot index of every privacy value in ``privacy``."""
        privacy = np.asarray(privacy, dtype=np.float64)
        if not np.isfinite(privacy).all():
            raise OptimizationError("privacy values must be finite")
        indices = np.floor(privacy.clip(0.0, 1.0) * self.size).astype(np.intp)
        return np.minimum(indices, self.size - 1)

    # -- updates ---------------------------------------------------------------
    def offer_population(self, population: Population) -> int:
        """Offer every row of ``population`` (which carries ``privacy`` and
        ``utility`` metadata columns) to Ω; returns the accepted-update count.

        A feasible row with finite utility replaces its slot's occupant when
        the slot is empty or its utility is strictly lower.  Count and final
        occupants equal offering the rows one at a time, in row order.  The
        slot columns are allocated on the first accepted offer, with the
        offered population's dtypes and metadata keys.
        """
        utility = population.metadata["utility"]
        rows = (population.feasible & np.isfinite(utility)).nonzero()[0]
        slots = self.slots_of(population.metadata["privacy"][rows])
        improving = utility[rows] < self._utilities[slots]
        rows, slots = rows[improving], slots[improving]
        if rows.size == 0:
            return 0
        if self._genomes is None:
            self._allocate(population)
        # Sort by slot, then utility, then row: a row is a sequential update
        # iff no row before it in its slot group was offered earlier.  Shifting
        # each group's row keys below every earlier group's turns that test
        # into one running minimum over the whole batch.
        order = np.lexsort((rows, utility[rows], slots))
        rows, slots = rows[order], slots[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = slots[1:] != slots[:-1]
        group = np.cumsum(first)
        key = rows + (group[-1] - group) * population.size
        accepted = 1 + int(np.count_nonzero(key[1:] < np.minimum.accumulate(key)[:-1]))
        rows, slots = rows[first], slots[first]
        self._utilities[slots] = utility[rows]
        _copy_rows(self._genomes, slots, population.genomes, rows)
        self._objectives[slots] = population.objectives[rows]
        for key_name, column in self._metadata.items():
            column[slots] = population.metadata[key_name][rows]
        self._n_updates += accepted
        return accepted

    def refresh(self, population: Population) -> None:
        """Overwrite in place every feasible row of ``population`` whose slot
        holds a strictly lower-utility member (Ω's reverse direction).  Rows
        keep their selection fitness, so an archive's stamp stays truthful."""
        rows = population.feasible.nonzero()[0]
        slots = self.slots_of(population.metadata["privacy"][rows])
        better = self._utilities[slots] < population.metadata["utility"][rows]
        rows, slots = rows[better], slots[better]
        if rows.size == 0:
            return
        _copy_rows(population.genomes, rows, self._genomes, slots)
        population.objectives[rows] = self._objectives[slots]
        for key, column in population.metadata.items():
            column[rows] = self._metadata[key][slots]

    def _allocate(self, population: Population) -> None:
        self._genomes = np.zeros(
            (self.size, *population.genomes.shape[1:]), dtype=population.genomes.dtype
        )
        self._objectives = np.zeros((self.size, population.objectives.shape[1]))
        self._metadata = {
            key: np.zeros(self.size, dtype=column.dtype)
            for key, column in population.metadata.items()
        }

    # -- views ------------------------------------------------------------------
    @property
    def n_updates(self) -> int:
        """Total number of accepted updates since creation."""
        return self._n_updates

    @property
    def n_occupied(self) -> int:
        """Number of non-empty slots."""
        return int(np.count_nonzero(np.isfinite(self._utilities)))

    def __len__(self) -> int:
        return self.n_occupied

    def slot_utilities(self) -> np.ndarray:
        """Read-only view of the per-slot utilities (+inf = empty slot)."""
        return _read_only(self._utilities)

    def members(self) -> Population | None:
        """Ω's slot columns as a population of :attr:`size` rows (read-only
        views, no copy; ``None`` before the first accepted offer): row ``s``
        is slot ``s``, and ``feasible`` marks the occupied slots."""
        if self._genomes is None:
            return None
        return Population(
            genomes=_read_only(self._genomes),
            objectives=_read_only(self._objectives),
            feasible=np.isfinite(self._utilities),
            metadata={key: _read_only(column) for key, column in self._metadata.items()},
        )

    # -- checkpointing ---------------------------------------------------------
    def state_document(self) -> dict[str, Any]:
        """Serialize Ω bit-exactly for a ``checkpoint`` document: the
        ascending occupied ``slots`` plus one byte array per column with one
        row per slot.  The document is cached keyed by :attr:`n_updates` — Ω
        only changes through accepted offers, so checkpoints taken while Ω
        is quiet reuse the previous serialization."""
        cached = self._state_cache
        if cached is not None and cached[0] == self._n_updates:
            return cached[1]
        slots = np.flatnonzero(np.isfinite(self._utilities))
        document: dict[str, Any] = {
            "size": self.size,
            "n_updates": self._n_updates,
            "slots": slots.tolist(),
        }
        if slots.size:
            document["genomes"] = encode_array(self._genomes[slots])
            document["objectives"] = encode_array(self._objectives[slots])
            document["feasible"] = encode_array(np.ones(slots.size, dtype=bool))
            document["metadata"] = {
                key: {"column": encode_array(column[slots])}
                for key, column in self._metadata.items()
            }
        self._state_cache = (self._n_updates, document)
        return document

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore the state captured by :meth:`state_document`, after
        validating all of it (the rules are listed in ``docs/invariants.md``);
        a malformed document raises :class:`~repro.exceptions.ValidationError`
        and leaves Ω untouched."""
        try:
            size, slots, n_updates = document["size"], document["slots"], document["n_updates"]
            if size != self.size or not _is_int(size):
                raise ValidationError(f"has {size!r} slots, this one {self.size}")
            if not isinstance(slots, list) or not all(
                _is_int(slot) and 0 <= slot < self.size for slot in slots
            ) or any(later <= earlier for earlier, later in zip(slots, slots[1:])):
                raise ValidationError(f"slots must be strictly increasing ints in [0, {size})")
            # Ω never empties a slot, so any accepted offer leaves one occupied.
            if not _is_int(n_updates) or n_updates < len(slots) or (n_updates > 0) != bool(slots):
                raise ValidationError(
                    f"n_updates {n_updates!r} must be an int >= its {len(slots)} occupied "
                    f"slots, and 0 exactly when none is occupied"
                )
            members = None
            if slots:
                members = Population(
                    genomes=check_stochastic_stack(decode_array(document["genomes"]), "genomes"),
                    objectives=decode_array(document["objectives"]),
                    feasible=decode_array(document["feasible"]),
                    metadata={
                        key: decode_array(entry["column"])
                        for key, entry in document["metadata"].items()
                    },
                )
                self._check_members(np.array(slots, dtype=np.intp), members)
        except KeyError as exc:
            raise ValidationError(
                f"checkpointed optimal set is missing field {exc.args[0]!r}"
            ) from exc
        except (TypeError, AttributeError, OptimizationError) as exc:
            raise ValidationError(f"checkpointed optimal set is malformed: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"checkpointed optimal set {exc}") from exc
        # Valid members sit in distinct, empty slots: offering them to a
        # fresh Ω rebuilds every column exactly.
        self.__post_init__()
        if members is not None:
            self.offer_population(members)
        self._n_updates = n_updates

    def _check_members(self, slots: np.ndarray, members: Population) -> None:
        if members.size != slots.size or any(
            column.shape != (slots.size,) for column in members.metadata.values()
        ):
            raise ValidationError(f"arrays must have one row per slot ({slots.size})")
        if not members.feasible.all():
            raise ValidationError("members must all be feasible")
        privacy = members.metadata["privacy"].astype(np.float64)
        utility = members.metadata["utility"].astype(np.float64)
        if not (np.all(np.isfinite(privacy)) and np.all(np.isfinite(utility))):
            raise ValidationError("privacy and utility must be finite")
        if not np.array_equal(self.slots_of(privacy), slots):
            raise ValidationError("members do not lie in their privacy slots")
        if np.stack([-privacy, utility], axis=1).tobytes() != members.objectives.tobytes():
            raise ValidationError("objectives must equal (-privacy, utility) bit for bit")


def _copy_rows(
    target: np.ndarray, target_rows: np.ndarray, source: np.ndarray, source_rows: np.ndarray
) -> None:
    """``target[target_rows] = source[source_rows]`` for distinct
    ``target_rows``, gathering at most :data:`_CHUNK_BYTES` of ``source``
    rows at a time."""
    step = max(1, _CHUNK_BYTES // max(1, source[:1].nbytes))
    for start in range(0, source_rows.size, step):
        stop = start + step
        target[target_rows[start:stop]] = source[source_rows[start:stop]]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view
