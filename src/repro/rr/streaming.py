"""Streaming RR runtime: bounded-memory disguise and online reconstruction.

This module is the paper's deployment story (Section III) as a streaming
pipeline — the first slice of the ROADMAP's ``optrr serve``:

* :class:`StreamingDisguiser` disguises integer codes chunk by chunk.  Its
  single seeded generator draws each chunk's uniforms **sequentially**, and
  the disguise kernel is elementwise per record, so the concatenation of the
  chunked outputs is bit-identical to one-shot
  :meth:`~repro.rr.randomize.RandomizedResponse.randomize_codes` with the
  same seed — for every chunking, ragged tails included.
* :class:`CountAccumulator` keeps running per-category counts of the
  disguised stream in O(n) memory, with a ``state_document`` /
  ``restore_state`` codec riding the checkpoint array encoding so a killed
  stream restarts warm and bit-identically.
* :class:`OnlineEstimator` re-estimates the original distribution after each
  chunk from the accumulated counts (inversion or iterative method).  The
  iterative fixed point is warm-started from the previous chunk's estimate,
  which converges in a handful of iterations once the counts stabilise, and
  per-chunk convergence diagnostics are kept for reporting.
* :func:`read_code_chunks` and :class:`CodeLineWriter` own the text code
  stream ``optrr disguise`` reads and writes, parsed and formatted a block
  at a time with array operations.

All state round-trips through plain-JSON documents, so the kill/resume
invariant of the optimizer (resume == uninterrupted, bit for bit) extends to
the streaming runtime.
"""

from __future__ import annotations

from typing import Any, BinaryIO, Iterator

import numpy as np

from repro.exceptions import DataError, EstimationError, ValidationError
from repro.rr.estimation import (
    DistributionEstimate,
    InversionEstimator,
    IterativeEstimator,
)
from repro.rr.matrix import RRMatrix
from repro.rr.randomize import RandomizedResponse, check_codes
from repro.types import SeedLike, as_rng, restore_rng_state, rng_state_document
from repro.utils.arrays import decode_array, encode_array
from repro.utils.validation import check_counter, check_positive_int

#: Schema tags of the streaming state documents (bumped on layout changes).
DISGUISER_STATE_SCHEMA = "streaming-disguiser-v1"
ACCUMULATOR_STATE_SCHEMA = "count-accumulator-v1"
ESTIMATOR_STATE_SCHEMA = "online-estimator-v1"


def iter_chunks(codes: np.ndarray, chunk_size: int) -> Iterator[np.ndarray]:
    """Yield successive ``chunk_size`` views of a 1-D code array.

    The final chunk is ragged when ``chunk_size`` does not divide the length.
    Views, not copies: chunking adds no memory over the input itself.
    """
    check_positive_int(chunk_size, "chunk_size")
    codes = np.asarray(codes)
    for start in range(0, codes.size, chunk_size):
        yield codes[start : start + chunk_size]


# -- code streams ----------------------------------------------------------------
#
# The text format `optrr disguise` reads and writes: tokens matching
# ``[+-]?[0-9]+`` separated by runs of ASCII whitespace, parsed and formatted
# block-wise with array operations instead of one Python int()/str() per record.

#: Bytes read per block when parsing a code stream.  The parse temporaries
#: hold one entry per byte or per token of a block, so this, not the stream
#: length, bounds them (1 MiB blocks doubled the runtime's peak RSS).
CODE_BLOCK_BYTES = 64 * 1024

#: The ASCII whitespace ``str.split()`` separates on: \t \n \v \f \r,
#: \x1c-\x1f and space.  No byte of a UTF-8 multibyte sequence is among them,
#: so cutting a block after one never splits a character.
_WHITESPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_WHITESPACE_BYTES = tuple(bytes([byte]) for byte in _WHITESPACE)

_SEPARATOR, _DIGIT, _SIGN, _OTHER = 0, 1, 2, 3
_BYTE_KIND = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_KIND[list(_WHITESPACE)] = _SEPARATOR
_BYTE_KIND[list(b"0123456789")] = _DIGIT
_BYTE_KIND[list(b"+-")] = _SIGN
_DIGIT_VALUE = np.zeros(256, dtype=np.int64)
_DIGIT_VALUE[list(b"0123456789")] = np.arange(10)

#: Tokens with at most this many digits cannot overflow the int64 digit sum
#: (10**18 - 1 < 2**63); longer ones take the exact Python ``int`` path.
_MAX_FAST_DIGITS = 18


def read_code_chunks(stream: BinaryIO, chunk_size: int) -> Iterator[np.ndarray]:
    """Parse a binary code stream into int64 chunks of exactly ``chunk_size``
    codes (the last one ragged).

    Raises :class:`DataError` naming the first token, in stream order, that
    is not ``[+-]?[0-9]+``, and :class:`ValidationError` for a code outside
    int64.  Memory is bounded by one block plus one chunk.
    """
    check_positive_int(chunk_size, "chunk_size")
    pending: list[np.ndarray] = []
    n_pending = 0
    for values in _iter_code_blocks(stream):
        pending.append(values)
        n_pending += values.size
        if n_pending >= chunk_size:
            joined = np.concatenate(pending)
            n_full = n_pending - n_pending % chunk_size
            yield from iter_chunks(joined[:n_full], chunk_size)
            pending, n_pending = [joined[n_full:]], n_pending - n_full
    if n_pending:
        yield np.concatenate(pending)


def _iter_code_blocks(stream: BinaryIO) -> Iterator[np.ndarray]:
    """Yield the codes of successive blocks, each cut after its last
    whitespace byte; the tail carries into the next block."""
    pieces: list[bytes] = []
    while block := stream.read(CODE_BLOCK_BYTES):
        cut = max(map(block.rfind, _WHITESPACE_BYTES)) + 1
        if cut:
            pieces.append(block[:cut])
            yield _parse_code_block(b"".join(pieces))
            pieces = [block[cut:]]
        else:
            pieces.append(block)
    tail = b"".join(pieces)
    if tail:
        yield _parse_code_block(tail)


def _parse_code_block(block: bytes) -> np.ndarray:
    """The codes of one block of whole tokens, as int64."""
    data = np.frombuffer(block, dtype=np.uint8)
    kind = _BYTE_KIND.take(data)
    is_token = kind != _SEPARATOR
    edges = np.diff(is_token, prepend=False, append=False)
    boundaries = np.flatnonzero(edges)
    starts, ends = boundaries[0::2], boundaries[1::2]
    # The grammar holds when no byte is _OTHER and every sign opens its token
    # and is followed by a digit (a sign ending the block is compared with
    # itself through the clipped index, so it fails too).
    signs = np.flatnonzero(kind == _SIGN)
    after_sign = kind[np.minimum(signs + 1, data.size - 1)]
    misplaced = signs[~edges[signs] | (after_sign != _DIGIT)]
    invalid = np.flatnonzero(kind == _OTHER)
    first_bad = min(invalid[:1].tolist() + misplaced[:1].tolist(), default=None)
    n_good = starts.size
    if first_bad is not None:
        n_good = int(np.searchsorted(starts, first_bad, side="right")) - 1
    negative = data[starts] == ord("-")
    digits = ends - starts - (kind[starts] == _SIGN)
    exact = {
        index: _exact_code(block[starts[index] : ends[index]])
        for index in np.flatnonzero(digits[:n_good] > _MAX_FAST_DIGITS).tolist()
    }
    if first_bad is not None:
        token = block[starts[n_good] : ends[n_good]]
        raise DataError(f"input code {_token_text(token)!r} is not an integer")
    if not n_good:
        return np.zeros(0, dtype=np.int64)
    # Digit k from the right of every token at once, times 10 ** k; one pass
    # per digit position, so short codes cost a pass or two per block.
    last = ends - 1
    values = _DIGIT_VALUE[data[last]]
    for k in range(1, min(int(digits.max()), _MAX_FAST_DIGITS)):
        values += np.where(digits > k, _DIGIT_VALUE[data[last - k]], 0) * 10**k
    np.negative(values, out=values, where=negative)
    for index, value in exact.items():
        values[index] = value
    return values


def _exact_code(token: bytes) -> int:
    """A long token through exact Python ``int``, checked to fit int64."""
    try:
        value = int(token)
    except ValueError as exc:  # beyond int()'s digit-count limit
        raise DataError(f"input code {_token_text(token)!r} is not an integer") from exc
    if not -(2**63) <= value < 2**63:
        raise ValidationError(f"input code {value} does not fit in int64")
    return value


def _token_text(token: bytes) -> str:
    return token.decode("utf-8", "backslashreplace")


class CodeLineWriter:
    """Writes codes in ``[0, n_categories)`` to a binary stream, one decimal
    code per line.

    Each line sits NUL-padded in a fixed-width table, so a chunk formats as
    one gather plus one NUL strip.  Codes outside the range are not checked:
    the disguise kernel never produces them.
    """

    def __init__(self, stream: BinaryIO, n_categories: int) -> None:
        check_positive_int(n_categories, "n_categories")
        self._stream = stream
        self._lines = np.array([b"%d\n" % code for code in range(n_categories)])

    def write(self, codes: np.ndarray) -> None:
        self._stream.write(self._lines[codes].tobytes().replace(b"\0", b""))


def _check_schema(schema: Any, expected: str, owner: str) -> None:
    if schema != expected:
        raise ValidationError(
            f"cannot restore {owner} state: schema {schema!r} != {expected!r}"
        )


class StreamingDisguiser:
    """Chunked RR disguise, bit-identical to the one-shot mechanism.

    Parameters
    ----------
    matrix:
        The RR matrix to disguise with.
    seed:
        Seed of the single internal generator.  Feeding the stream in chunks
        of any size reproduces ``RandomizedResponse(matrix)
        .randomize_codes(all_codes, seed=seed)`` exactly, because successive
        ``rng.random(c_k)`` draws on one generator concatenate bit-identically
        to one ``rng.random(sum c_k)`` draw.
    """

    def __init__(self, matrix: RRMatrix, seed: SeedLike = None) -> None:
        self._mechanism = RandomizedResponse(matrix)
        self._rng = as_rng(seed)
        self._records_seen = 0

    @property
    def matrix(self) -> RRMatrix:
        return self._mechanism.matrix

    @property
    def n_categories(self) -> int:
        return self._mechanism.n_categories

    @property
    def records_seen(self) -> int:
        """Total records disguised so far."""
        return self._records_seen

    def disguise_chunk(self, codes: np.ndarray) -> np.ndarray:
        """Disguise the next chunk of the stream."""
        # Passing the live generator as the seed advances it sequentially —
        # the mechanism draws exactly `codes.size` uniforms per chunk.
        disguised = self._mechanism.randomize_codes(codes, seed=self._rng)
        self._records_seen += disguised.size
        return disguised

    def state_document(self) -> dict[str, Any]:
        """JSON-compatible snapshot for a warm restart."""
        return {
            "schema": DISGUISER_STATE_SCHEMA,
            "rng_state": rng_state_document(self._rng),
            "records_seen": int(self._records_seen),
        }

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore a :meth:`state_document` snapshot (bit-exact resume)."""
        _check_schema(document.get("schema"), DISGUISER_STATE_SCHEMA, "StreamingDisguiser")
        restore_rng_state(self._rng, document.get("rng_state"))
        self._records_seen = check_counter(
            document["records_seen"], "StreamingDisguiser records_seen"
        )


class CountAccumulator:
    """Running per-category counts of a disguised code stream.

    O(n) memory regardless of stream length; the counts ride the checkpoint
    array codec so a killed stream resumes with bit-identical totals.
    """

    def __init__(self, n_categories: int) -> None:
        check_positive_int(n_categories, "n_categories")
        self._n_categories = int(n_categories)
        self._counts = np.zeros(self._n_categories, dtype=np.int64)
        self._n_records = 0

    @property
    def n_categories(self) -> int:
        return self._n_categories

    @property
    def n_records(self) -> int:
        """Total records accumulated so far."""
        return self._n_records

    @property
    def counts(self) -> np.ndarray:
        """Copy of the current per-category counts (int64)."""
        return self._counts.copy()

    def update(self, codes: np.ndarray) -> None:
        """Accumulate one chunk of disguised codes."""
        codes = check_codes(codes, self._n_categories)
        self._counts += np.bincount(codes, minlength=self._n_categories)
        self._n_records += codes.size

    def state_document(self) -> dict[str, Any]:
        """JSON-compatible snapshot (counts via the checkpoint array codec)."""
        return {
            "schema": ACCUMULATOR_STATE_SCHEMA,
            "counts": encode_array(self._counts),
            "n_records": int(self._n_records),
        }

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore a :meth:`state_document` snapshot (bit-exact resume).

        ``n_records`` must be a non-negative integer and ``counts`` one
        non-negative integer per category summing to it.
        """
        _check_schema(document.get("schema"), ACCUMULATOR_STATE_SCHEMA, "CountAccumulator")
        n_records = check_counter(document["n_records"], "CountAccumulator n_records")
        counts = decode_array(document["counts"])
        if counts.shape != (self._n_categories,):
            raise ValidationError(
                f"cannot restore CountAccumulator state: counts shape "
                f"{counts.shape} != ({self._n_categories},)"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValidationError(
                f"cannot restore CountAccumulator state: counts dtype {counts.dtype} "
                f"is not an integer type"
            )
        # Negative after the int64 cast also catches uint64 counts that wrap.
        counts = counts.astype(np.int64, copy=False)
        if np.any(counts < 0):
            raise ValidationError(
                "cannot restore CountAccumulator state: counts must be non-negative"
            )
        total = int(counts.sum(dtype=object))
        if total != n_records:
            raise ValidationError(
                f"cannot restore CountAccumulator state: counts sum to {total}, "
                f"not n_records {n_records}"
            )
        self._counts = counts
        self._n_records = n_records


#: Estimation methods the online estimator understands.
_ONLINE_METHODS = ("inversion", "iterative")


class OnlineEstimator:
    """Incremental distribution reconstruction over accumulated counts.

    After each chunk the estimate is recomputed from the *running* counts —
    O(n) state, never the stream itself.  With ``method="iterative"`` the
    Bayes fixed point is warm-started from the previous chunk's estimate:
    once the empirical disguised distribution stabilises, each refresh needs
    only a few iterations instead of restarting from uniform.  Per-chunk
    convergence diagnostics (iterations used, converged flag) are kept in
    :attr:`diagnostics`.
    """

    def __init__(self, matrix: RRMatrix, method: str = "inversion", **options) -> None:
        if method not in _ONLINE_METHODS:
            raise EstimationError(
                f"unknown estimation method {method!r}; "
                f"accepted: {', '.join(map(repr, _ONLINE_METHODS))}"
            )
        self._matrix = matrix
        self._method = method
        if method == "inversion":
            self._estimator: InversionEstimator | IterativeEstimator = (
                InversionEstimator(**options)
            )
        else:
            self._estimator = IterativeEstimator(**options)
        self._accumulator = CountAccumulator(matrix.n_categories)
        self._warm_start: np.ndarray | None = None
        self._diagnostics: list[dict[str, Any]] = []

    @property
    def method(self) -> str:
        return self._method

    @property
    def matrix(self) -> RRMatrix:
        return self._matrix

    @property
    def n_records(self) -> int:
        """Total disguised records folded into the estimate so far."""
        return self._accumulator.n_records

    @property
    def counts(self) -> np.ndarray:
        """Copy of the accumulated per-category counts."""
        return self._accumulator.counts

    @property
    def diagnostics(self) -> tuple[dict[str, Any], ...]:
        """Per-chunk convergence diagnostics, oldest first."""
        return tuple(dict(entry) for entry in self._diagnostics)

    def update(self, disguised_codes: np.ndarray) -> DistributionEstimate:
        """Fold one chunk of disguised codes in and return the new estimate."""
        self._accumulator.update(disguised_codes)
        estimate = self._estimate()
        self._diagnostics.append(
            {
                "chunk_index": len(self._diagnostics),
                "chunk_records": int(np.asarray(disguised_codes).size),
                "total_records": self._accumulator.n_records,
                "n_iterations": estimate.n_iterations,
                "converged": bool(estimate.converged),
            }
        )
        return estimate

    def current_estimate(self) -> DistributionEstimate:
        """Re-estimate from the accumulated counts without new data."""
        if self._accumulator.n_records == 0:
            raise EstimationError("no records accumulated yet")
        return self._estimate()

    def _estimate(self) -> DistributionEstimate:
        counts = self._accumulator.counts.astype(np.float64)
        if isinstance(self._estimator, IterativeEstimator):
            estimate = self._estimator.estimate(
                counts, self._matrix, initial=self._warm_start
            )
            # Warm-start the next refresh from this fixed point.
            self._warm_start = estimate.probabilities.copy()
        else:
            estimate = self._estimator.estimate(counts, self._matrix)
        return estimate

    def state_document(self) -> dict[str, Any]:
        """JSON-compatible snapshot (accumulator + warm start + diagnostics)."""
        return {
            "schema": ESTIMATOR_STATE_SCHEMA,
            "method": self._method,
            "accumulator": self._accumulator.state_document(),
            "warm_start": (
                None if self._warm_start is None else encode_array(self._warm_start)
            ),
            "diagnostics": [dict(entry) for entry in self._diagnostics],
        }

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore a :meth:`state_document` snapshot (bit-exact resume)."""
        _check_schema(document.get("schema"), ESTIMATOR_STATE_SCHEMA, "OnlineEstimator")
        method = document["method"]
        if method != self._method:
            raise ValidationError(
                f"cannot restore OnlineEstimator state: method {method!r} "
                f"!= {self._method!r}"
            )
        self._accumulator.restore_state(document["accumulator"])
        warm_start = document["warm_start"]
        if warm_start is not None:
            warm_start = decode_array(warm_start)
            if warm_start.shape != (self._matrix.n_categories,) or not np.all(
                np.isfinite(warm_start)
            ):
                raise ValidationError(
                    "cannot restore OnlineEstimator state: warm_start must be "
                    f"{self._matrix.n_categories} finite values"
                )
        self._warm_start = warm_start
        self._diagnostics = [dict(entry) for entry in document["diagnostics"]]
