"""Environmental and mating selection (Sections V-C and V-D of the paper).

Environmental selection builds the next archive from the union of the current
archive and population: all non-dominated individuals are copied; an underfull
archive is topped up with the best dominated individuals; an overfull archive
is truncated by iteratively removing the individual with the smallest
nearest-neighbour distance (ties broken on the next-nearest neighbour, and so
on), which preserves diversity along the front.

Mating selection is a binary tournament on fitness.

The functions here are *index-native*: they take raw fitness / objective /
distance arrays and return index arrays, which is how the structure-of-arrays
generation loop (:mod:`repro.emoo.population`) uses them — the pairwise
distance matrix is computed once per generation and shared between density
estimation and truncation.

Truncation is incremental: the distance matrix is masked in place per removal
(the victim's row and column are set to ``+inf``) and the next victim is found
with one NaN-skipping ``fmin``-reduction.  Only the rows that tie on their
nearest-neighbour distance (in practice the closest pair, on every removal)
are copied out whole and row-sorted (removed columns are ``+inf`` in every
such row, which leaves their order unchanged), and the tie is broken on the
first column where their sorted rows differ.  The removal order is
bit-for-bit identical to the reference in ``tests/oracles/optrr_loop.py``
(property-tested in ``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.emoo.density import pairwise_distances
from repro.exceptions import OptimizationError
from repro.utils.validation import check_positive_int


def environmental_selection_indices(
    fitness: np.ndarray,
    archive_size: int,
    *,
    distances: np.ndarray | None = None,
    objectives: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the next archive, selected from fitness (and distances).

    Parameters
    ----------
    fitness:
        SPEA2 fitness of the union (``F < 1`` marks non-dominated rows).
    archive_size:
        Target archive size ``N_V``.
    distances:
        Pairwise objective-distance matrix of the union; required (directly or
        via ``objectives``) only when the non-dominated set overflows the
        archive and must be truncated.
    objectives:
        Union objective matrix, used to compute ``distances`` when a
        truncation is needed and no matrix was supplied.

    Returns the selected row indices into the union, in the same order the
    list-based selection produced: non-dominated rows first (original order),
    then — only when underfull — the best dominated rows by fitness.
    """
    check_positive_int(archive_size, "archive_size")
    fitness = np.asarray(fitness, dtype=np.float64)
    if fitness.size == 0:
        raise OptimizationError("environmental selection needs a non-empty union")
    non_dominated_index = np.flatnonzero(fitness < 1.0)
    if non_dominated_index.size == archive_size:
        return non_dominated_index
    if non_dominated_index.size < archive_size:
        dominated_index = np.flatnonzero(fitness >= 1.0)
        # Stable sort on fitness keeps the original order between ties, like
        # the Python ``sorted`` it replaces.
        best_dominated = dominated_index[
            np.argsort(fitness[dominated_index], kind="stable")
        ]
        needed = archive_size - non_dominated_index.size
        return np.concatenate([non_dominated_index, best_dominated[:needed]])
    if distances is None:
        if objectives is None:
            raise OptimizationError(
                "truncation needs the pairwise distances (or the objectives "
                "to compute them from)"
            )
        distances = pairwise_distances(np.asarray(objectives, dtype=np.float64))
    sub = distances[np.ix_(non_dominated_index, non_dominated_index)]
    return non_dominated_index[truncate_indices(sub, archive_size)]


def truncate_indices(distances: np.ndarray, target_size: int) -> np.ndarray:
    """Indices surviving SPEA2 archive truncation, computed incrementally.

    ``distances`` is the pairwise objective-distance matrix of the candidate
    set (its diagonal is ignored).  At each step the candidate with the
    lexicographically smallest vector of sorted nearest-neighbour distances is
    removed, exactly as in SPEA2.  Instead of re-slicing and fully re-sorting
    the alive submatrix per removal, the matrix is masked in place (+inf on
    the victim's row and column) and each pass reduces to one row-``min``;
    the lexicographic comparison only runs over rows tied on that nearest
    distance.  Survivors are returned in ascending index order —
    bit-for-bit the reference semantics, non-finite distances included (see
    the non-finite contract in ``docs/invariants.md``).
    """
    check_positive_int(target_size, "target_size")
    distances = np.asarray(distances, dtype=np.float64)
    size = distances.shape[0]
    if size <= target_size:
        return np.arange(size)
    masked = distances.copy()
    np.fill_diagonal(masked, np.inf)
    alive = np.ones(size, dtype=bool)
    # Zero-phase: exact duplicates always go first (a row with a zero entry is
    # lexicographically smaller than any zero-free row), handled at cluster
    # granularity instead of re-deriving ties per removal.
    n_alive = _remove_duplicate_clusters(masked, alive, size, target_size)
    if n_alive <= target_size:
        return np.flatnonzero(alive)
    # Main phase (no zero distances left).  Nearest-neighbour distance (and
    # where it is achieved) per row, maintained incrementally: a removal only
    # invalidates the rows whose nearest neighbour was the victim.  ``fmin``
    # skips NaN distances like the reference row sort, which puts them last;
    # a row is never all-NaN (its diagonal is +inf), so ``nearest`` is never
    # NaN.
    nearest = np.fmin.reduce(masked, axis=1)
    nearest[~alive] = np.inf
    nearest_at = (masked == nearest[:, None]).argmax(axis=1)
    while n_alive > target_size:
        # Removed rows carry +inf too, so ties are taken over alive rows only.
        tied = (alive & (nearest == nearest.min())).nonzero()[0]
        victim = int(tied[0])
        if tied.size > 1:
            # The closest pair always ties on its own distance, so this path
            # runs on nearly every removal: break the tie on the full sorted
            # neighbour-distance vectors (whole masked rows, see
            # :func:`_lexicographic_first`).
            victim = int(tied[_lexicographic_first(np.sort(masked[tied], axis=1))])
        masked[victim, :] = np.inf
        masked[:, victim] = np.inf
        alive[victim] = False
        nearest[victim] = np.inf
        n_alive -= 1
        if n_alive > target_size:
            stale = (alive & (nearest_at == victim)).nonzero()[0]
            if stale.size:
                rows = masked[stale]
                nearest[stale] = np.fmin.reduce(rows, axis=1)
                nearest_at[stale] = (rows == nearest[stale, None]).argmax(axis=1)
    return np.flatnonzero(alive)


def _lexicographic_first(rows: np.ndarray) -> int:
    """Index of the lexicographically smallest of the row-sorted ``rows``.

    Equal to ``np.lexsort(rows.T[::-1])[0]`` (the reference's tie-break):
    NaN sorts after every number and equals NaN, and a full tie goes to the
    lowest index.  Each comparison looks only at the first column where two
    rows differ.  Sorting puts a row's NaNs last, so two NaNs at that column
    mean the rows agree to the end.

    The callers sort whole rows of the masked matrix, dead columns included,
    where the reference sorts only the alive columns.  The order is the
    same.  Every dead column is ``+inf`` in every compared row, so each row
    gains the same ``k`` infs, and in a sorted row they land at one place:
    the inf/NaN boundary.  Order the values ``x < inf < NaN`` and let two
    alive-column rows ``a < b`` first differ at column ``c``, so that
    ``a[c] < b[c]``.  If ``a[c]`` is finite, no inf lands before ``c`` in
    either row; at ``c``, ``a`` keeps ``a[c]`` and ``b`` holds ``b[c]`` or an
    inf, both larger.  If ``a[c]`` is inf, ``b[c]`` is NaN; both rows then
    hold infs from ``c`` to ``c + k - 1``, and at ``c + k`` ``a`` still holds
    an inf while ``b`` holds a NaN.  Either way the padded ``a`` stays
    smaller, and equal rows stay equal, so a full tie still goes to the
    lowest index.
    """
    best = 0
    for candidate in range(1, rows.shape[0]):
        incumbent, challenger = rows[best], rows[candidate]
        column = int((incumbent != challenger).argmax())
        current, other = incumbent[column], challenger[column]
        if other < current or (current != current and other == other):
            best = candidate
    return best


def _remove_duplicate_clusters(
    masked: np.ndarray, alive: np.ndarray, n_alive: int, target_size: int
) -> int:
    """Exact-duplicate removal phase of SPEA2 truncation, run at cluster level.

    Exact duplicates form zero-distance cliques, and the reference removal
    order over them is structured: any member of a size-``c`` cluster carries
    ``c - 1`` leading zeros in its sorted row, so members of the *largest*
    cluster sort below everything else, clusters tied on size compare on
    their (identical within a cluster) full rows, and sort stability removes
    the lowest remaining index within the chosen cluster.  This phase
    replays exactly that order while only comparing one representative row
    per tied cluster — and when the removal budget covers all duplicates,
    the outcome (each cluster keeps its highest member) is applied in one
    vectorized step.  Ω re-injection makes duplicate clusters the common
    case on real populations, which is what made per-removal re-sorting the
    generation loop's top hotspot.

    ``masked`` and ``alive`` are updated in place; returns the new number of
    alive rows.
    """
    if n_alive <= target_size:
        return n_alive
    zero_pairs = masked == 0.0
    members = np.flatnonzero(zero_pairs.any(axis=1))
    if members.size == 0:
        return n_alive
    # The first zero entry of a member's row is the cluster's lowest index
    # (or its second-lowest, for the lowest member itself), which canonically
    # labels the cluster.
    labels = np.minimum(members, zero_pairs[members].argmax(axis=1))
    budget = n_alive - target_size
    # ``members`` is ascending, so the last occurrence of each label is the
    # cluster's highest member.
    unique_labels, last_of_label = np.unique(labels[::-1], return_index=True)
    if members.size - unique_labels.size <= budget:
        # Order-free bulk case: the phase runs to completion, so each cluster
        # keeps exactly its highest-index member no matter the removal order.
        keep = np.zeros(members.size, dtype=bool)
        keep[members.size - 1 - last_of_label] = True
        victims = members[~keep]
        masked[victims, :] = np.inf
        masked[:, victims] = np.inf
        alive[victims] = False
        return n_alive - victims.size
    # Partial case: the budget runs out mid-phase, so the inter-cluster order
    # matters.  Replay it with per-cluster bookkeeping.
    clusters: dict[int, list[int]] = {}
    for member, label in zip(members.tolist(), labels.tolist()):
        clusters.setdefault(label, []).append(member)
    for _ in range(budget):
        largest = max(len(cluster) for cluster in clusters.values())
        candidates = sorted(
            (cluster for cluster in clusters.values() if len(cluster) == largest),
            key=lambda cluster: cluster[0],
        )
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            # Equal-size clusters tie on their zero prefix; compare the full
            # sorted rows of one representative each (rows are identical
            # within a cluster, and stability resolves full ties to the
            # lowest current member — hence the ascending candidate order).
            representatives = [cluster[0] for cluster in candidates]
            rows = np.sort(masked[representatives], axis=1)
            chosen = candidates[_lexicographic_first(rows)]
        victim = chosen.pop(0)
        masked[victim, :] = np.inf
        masked[:, victim] = np.inf
        alive[victim] = False
        n_alive -= 1
        if len(chosen) == 1:
            clusters = {
                label: cluster for label, cluster in clusters.items() if len(cluster) > 1
            }
            if not clusters:
                break
    return n_alive


def binary_tournament_indices(
    fitness: np.ndarray,
    n_selections: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Winner indices of ``n_selections`` binary tournaments on fitness.

    Lower fitness wins; all tournament pairs are drawn and decided in one
    vectorized step (ties go to the first contestant).
    """
    check_positive_int(n_selections, "n_selections")
    fitness = np.asarray(fitness, dtype=np.float64)
    if fitness.size == 0:
        raise OptimizationError("mating selection needs a non-empty pool")
    pairs = rng.integers(0, fitness.size, size=(n_selections, 2))
    return np.where(
        fitness[pairs[:, 0]] <= fitness[pairs[:, 1]], pairs[:, 0], pairs[:, 1]
    )
