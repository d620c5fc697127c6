"""Bit-exact JSON serialization of numpy arrays, and canonical JSON text.

Checkpoint documents (:mod:`repro.emoo.driver`, :mod:`repro.io`) must restore
optimizer state *bit-for-bit*: a resumed run has to retrace the uninterrupted
run's floating-point trajectory exactly.  Encoding arrays as decimal text is
both lossy-looking (it round-trips, but only via shortest-repr float parsing)
and slow at checkpoint cadence, so arrays are stored as raw little-endian
bytes, base64-encoded inside an ordinary JSON object::

    {"dtype": "<f8", "shape": [40, 10, 10], "data": "zczMzMzM..."}

``encode_array``/``decode_array`` round-trip every dtype this code base uses
(float64 including ``inf``/``nan``/``-0.0``, bool, int64) without touching a
single bit.  :func:`dump_canonical_json` renders whole documents the same
way every time, which content-addressed caches and byte-compared outputs
rely on.
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from repro.exceptions import ValidationError


def encode_array(array: np.ndarray) -> dict[str, Any]:
    """Encode an array as a JSON-compatible ``{dtype, shape, data}`` document."""
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise ValidationError("object arrays cannot be byte-encoded; use a genome codec")
    # Force a byte-order-explicit dtype string so documents written on a
    # big-endian host (dtype.str "​>f8") still decode correctly everywhere.
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(document: dict[str, Any]) -> np.ndarray:
    """Decode :func:`encode_array` output back into a writable array."""
    try:
        dtype = np.dtype(document["dtype"])
        shape = tuple(int(extent) for extent in document["shape"])
        raw = base64.b64decode(document["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed array document: {exc}") from exc
    if dtype.hasobject:
        raise ValidationError("array documents must hold a plain numeric dtype")
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
    if len(raw) != expected and not (shape and 0 in shape and len(raw) == 0):
        raise ValidationError(
            f"array document carries {len(raw)} bytes for dtype {dtype} shape {shape}"
        )
    # frombuffer returns a read-only view over the bytes object; copy so the
    # restored optimizer state is writable like the state it replaces.
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def dump_canonical_json(document: dict[str, Any]) -> str:
    """Render a document as canonical JSON (sorted keys, fixed indent).

    The campaign cache and the campaign aggregates rely on this being
    deterministic: the same document always produces the same bytes.
    """
    return json.dumps(document, indent=2, sort_keys=True)
