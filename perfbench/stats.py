"""Order statistics used by the benchmark reports.

Every timing is reported as a median plus the highest percentile that still
has at least :data:`MIN_TAIL_SAMPLES` samples beyond it, always together with
the sample count.  With 19 or fewer samples no tail percentile qualifies and
only the median is reported.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from typing import Sequence

#: Percentiles considered for the tail, lowest first.
TAIL_PERCENTILES = ("50", "90", "99", "99.9")

#: Samples that must lie beyond a percentile before it may be reported.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between closest ranks
    (NumPy's default ``linear`` method)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * float(p) / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(samples: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(samples, 50.0)


def qualifies(count: int, p: str) -> bool:
    """Whether ``count`` samples leave at least ``MIN_TAIL_SAMPLES`` beyond
    percentile ``p`` (exact arithmetic, so p90 needs exactly 100 samples)."""
    beyond = count * (100 - Fraction(p)) / 100
    return beyond >= MIN_TAIL_SAMPLES


def tail_percentile(count: int) -> str | None:
    """The highest percentile in :data:`TAIL_PERCENTILES` that ``count``
    samples qualify for, or ``None`` when there are too few samples."""
    best = None
    for p in TAIL_PERCENTILES:
        if qualifies(count, p):
            best = p
    return best


def capped_percentile(samples: Sequence[float], p: str) -> float:
    """Percentile ``p`` when the sample qualifies for it; otherwise the
    highest percentile it does qualify for, falling back to the median.

    A fixed-name metric such as ``step_ms.p90`` thus never reports a tail
    the sample cannot support.
    """
    if not qualifies(len(samples), p):
        p = tail_percentile(len(samples)) or "50"
    return percentile(samples, float(p))


def describe(samples: Sequence[float]) -> dict[str, float | int | str | None]:
    """Median, qualifying tail percentile (if any) and sample count."""
    tail = tail_percentile(len(samples))
    return {
        "median": median(samples),
        "tail": f"p{tail}" if tail is not None and tail != "50" else None,
        "tail_value": (
            percentile(samples, float(tail))
            if tail is not None and tail != "50"
            else None
        ),
        "count": len(samples),
    }


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, with quartiles as
    :func:`statistics.quantiles` (``n=4``) computes them."""
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else float("inf")
