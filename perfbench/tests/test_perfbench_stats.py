"""The percentile rule and the spread figure of the benchmark reports."""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "count, expected",
    [(1, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (999, "90"),
     (1000, "99"), (9999, "99"), (10000, "99.9")],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_qualification_uses_exact_arithmetic():
    # 100 * (1 - 0.9) is 9.999... in floating point; exactly 10 samples lie
    # beyond p90 of 100 samples, so it must qualify.
    assert stats.qualifies(100, "90")
    assert not stats.qualifies(99, "90")
    assert stats.qualifies(10000, "99.9")


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    samples = rng.exponential(size=37).tolist()
    for p in (0, 10, 50, 90, 99, 100):
        assert stats.percentile(samples, p) == pytest.approx(np.percentile(samples, p))


def test_capped_percentile_never_reports_an_unsupported_tail():
    samples = [float(value) for value in range(40)]
    # 40 samples support p50 only: p90 falls back to it.
    assert stats.capped_percentile(samples, "90") == stats.median(samples)
    hundred = [float(value) for value in range(100)]
    assert stats.capped_percentile(hundred, "90") == stats.percentile(hundred, 90)
    # Fewer than 20 samples: the median is the only figure left.
    assert stats.capped_percentile([1.0, 2.0, 9.0], "90") == 2.0


def test_describe_always_reports_the_count():
    few = stats.describe([3.0, 1.0, 2.0])
    assert few == {"median": 2.0, "tail": None, "tail_value": None, "count": 3}
    many = stats.describe([float(value) for value in range(100)])
    assert many["tail"] == "p90"
    assert many["count"] == 100
    assert many["tail_value"] == pytest.approx(89.1)


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx(
        (third - first) / statistics.median(values)
    )
