"""Tests for Fact 1 (repro.core.search_space)."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ValidationError

from repro.core.search_space import (
    column_combinations,
    log10_rr_matrix_combinations,
    rr_matrix_combinations,
)
from tests.oracles.bruteforce import brute_force_is_feasible


class TestColumnCombinations:
    def test_small_cases_by_enumeration(self):
        # n=2, d=2: columns (0,2), (1,1), (2,0) -> 3 compositions.
        assert column_combinations(2, 2) == 3
        # n=3, d=2: C(4, 2) = 6.
        assert column_combinations(3, 2) == 6

    def test_matches_binomial_formula(self):
        assert column_combinations(5, 7) == math.comb(11, 7)


class TestMatrixCombinations:
    def test_small_case(self):
        assert rr_matrix_combinations(2, 2) == 9

    def test_paper_fact1_value(self):
        """Fact 1: n=10, d=100 gives about 1.98e126 combinations."""
        log10_count = log10_rr_matrix_combinations(10, 100)
        assert log10_count == pytest.approx(math.log10(1.98) + 126, abs=0.01)

    def test_log_matches_exact_for_small_inputs(self):
        exact = rr_matrix_combinations(3, 4)
        assert log10_rr_matrix_combinations(3, 4) == pytest.approx(math.log10(exact))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            rr_matrix_combinations(0, 10)
        with pytest.raises(ValidationError):
            rr_matrix_combinations(10, 0)


class TestBruteForceFeasibility:
    def test_tiny_case_is_feasible(self):
        assert brute_force_is_feasible(2, 10, budget=1000)

    def test_paper_case_is_infeasible(self):
        assert not brute_force_is_feasible(10, 100)

    def test_budget_boundary(self):
        combinations = rr_matrix_combinations(2, 4)  # 25
        assert brute_force_is_feasible(2, 4, budget=combinations)
        assert not brute_force_is_feasible(2, 4, budget=combinations - 1)
