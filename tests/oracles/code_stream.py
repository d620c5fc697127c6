"""Frozen text-loop reference for the ``optrr disguise`` code-stream I/O.

These are the original per-record parse and write loops of ``optrr
disguise``, kept verbatim as the executable specification of the code-stream
format: ``tests/rr/test_code_stream.py`` compares
:func:`repro.rr.streaming.read_code_chunks` and
:class:`repro.rr.streaming.CodeLineWriter` with them over streams drawn from
the ASCII grammar ``[+-]?[0-9]+``.  Nothing in ``src/`` imports this module.

Outside that grammar the two differ on purpose: ``int()`` here also accepts
underscores, non-ASCII digits and non-ASCII whitespace, and decodes the
stream as UTF-8 text, which the block parser rejects or never does.
"""

from __future__ import annotations

from repro.exceptions import DataError, ValidationError


def iter_code_chunks_reference(stream, chunk_size: int):
    """Parse whitespace-separated integer codes from a text stream in
    ``chunk_size`` batches (bounded memory: one chunk buffered at a time)."""
    import numpy as np

    def codes(buffer: list[int]) -> np.ndarray:
        try:
            return np.asarray(buffer, dtype=np.int64)
        except OverflowError as exc:
            wide = next(code for code in buffer if not -(2**63) <= code < 2**63)
            raise ValidationError(f"input code {wide} does not fit in int64") from exc

    buffer: list[int] = []
    for line in stream:
        for token in line.split():
            try:
                buffer.append(int(token))
            except ValueError as exc:
                raise DataError(f"input code {token!r} is not an integer") from exc
            if len(buffer) == chunk_size:
                yield codes(buffer)
                buffer = []
    if buffer:
        yield codes(buffer)


def write_code_chunk_reference(output_stream, disguised) -> None:
    """Write one chunk of disguised codes to a text stream, one per line."""
    output_stream.write("\n".join(map(str, disguised.tolist())) + "\n")
