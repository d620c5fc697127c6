"""Tests for repro.analysis.compare."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.compare import compare_fronts
from repro.core.result import ParetoFront
from repro.exceptions import ValidationError


def make_front(name: str, pairs) -> ParetoFront:
    return ParetoFront.from_points(name, pairs, keep_dominated=True)


class TestCompareFronts:
    def test_clearly_better_candidate(self):
        candidate = make_front("cand", [(0.2, 1e-5), (0.5, 5e-5), (0.8, 2e-4)])
        baseline = make_front("base", [(0.5, 1e-4), (0.8, 4e-4)])
        comparison = compare_fronts(candidate, baseline)
        assert comparison.covers_wider_privacy_range
        assert comparison.extra_privacy_range == pytest.approx(0.3)
        assert comparison.candidate_wins > 0
        assert comparison.baseline_wins == 0
        assert comparison.candidate_dominates_shared_range
        assert comparison.mean_utility_ratio > 1.0
        assert comparison.hypervolume_candidate > comparison.hypervolume_baseline

    def test_identical_fronts_tie(self):
        pairs = [(0.3, 1e-4), (0.6, 5e-4)]
        comparison = compare_fronts(make_front("a", pairs), make_front("b", pairs))
        assert comparison.candidate_wins == 0
        assert comparison.baseline_wins == 0
        assert comparison.ties > 0
        assert comparison.extra_privacy_range == pytest.approx(0.0)
        assert comparison.mean_utility_ratio == pytest.approx(1.0)

    def test_worse_candidate_detected(self):
        candidate = make_front("cand", [(0.5, 2e-4), (0.7, 8e-4)])
        baseline = make_front("base", [(0.3, 5e-6), (0.5, 1e-4), (0.7, 4e-4)])
        comparison = compare_fronts(candidate, baseline)
        assert comparison.baseline_wins > 0
        assert not comparison.covers_wider_privacy_range
        assert comparison.mean_utility_ratio < 1.0

    def test_coverage_and_epsilon_direction(self):
        candidate = make_front("cand", [(0.3, 1e-5), (0.6, 5e-5)])
        baseline = make_front("base", [(0.3, 1e-4), (0.6, 5e-4)])
        comparison = compare_fronts(candidate, baseline)
        assert comparison.coverage_candidate_over_baseline == pytest.approx(1.0)
        assert comparison.additive_epsilon <= 0.0

    def test_disjoint_privacy_ranges(self):
        candidate = make_front("cand", [(0.1, 1e-5), (0.2, 2e-5)])
        baseline = make_front("base", [(0.7, 1e-4), (0.8, 2e-4)])
        comparison = compare_fronts(candidate, baseline)
        # No shared range: no wins/losses/ties recorded.
        assert comparison.candidate_wins + comparison.baseline_wins + comparison.ties == 0

    def test_empty_front_rejected(self):
        empty = ParetoFront.from_points("empty", [])
        nonempty = make_front("a", [(0.5, 1e-4)])
        with pytest.raises(ValidationError):
            compare_fronts(empty, nonempty)

    def test_n_probes_validation(self):
        front = make_front("a", [(0.5, 1e-4)])
        with pytest.raises(ValidationError):
            compare_fronts(front, front, n_probes=1)

    def test_mean_ratio_nan_when_no_shared_range(self):
        candidate = make_front("cand", [(0.1, 1e-5)])
        baseline = make_front("base", [(0.9, 1e-4)])
        comparison = compare_fronts(candidate, baseline)
        assert np.isnan(comparison.mean_utility_ratio)
