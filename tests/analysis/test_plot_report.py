"""Tests for repro.analysis.plot and repro.analysis.report."""

from __future__ import annotations

import pytest

from repro.analysis.compare import compare_fronts
from repro.core.result import ParetoFront
from repro.analysis.plot import ascii_scatter
from repro.analysis.report import (
    format_comparison_table,
    format_front_table,
    format_paper_vs_measured,
)
from repro.exceptions import ValidationError


@pytest.fixture
def front() -> ParetoFront:
    return ParetoFront.from_points(
        "optrr", [(0.2, 1e-5), (0.5, 1e-4), (0.8, 1e-3)], keep_dominated=True
    )


@pytest.fixture
def baseline() -> ParetoFront:
    return ParetoFront.from_points(
        "warner", [(0.5, 2e-4), (0.8, 2e-3)], keep_dominated=True
    )


class TestAsciiScatter:
    def test_contains_markers_and_legend(self, front, baseline):
        plot = ascii_scatter([front, baseline])
        assert "o = optrr" in plot
        assert "x = warner" in plot
        assert "privacy" in plot
        assert "o" in plot and "x" in plot

    def test_respects_dimensions(self, front):
        plot = ascii_scatter([front], width=40, height=10)
        lines = plot.splitlines()
        plot_rows = [line for line in lines if line.startswith("|")]
        assert len(plot_rows) == 10
        assert all(len(line) <= 41 for line in plot_rows)

    def test_empty_fronts_rejected(self):
        with pytest.raises(ValidationError):
            ascii_scatter([ParetoFront.from_points("empty", [])])

    def test_too_small_plot_rejected(self, front):
        with pytest.raises(ValidationError):
            ascii_scatter([front], width=5, height=2)


class TestFrontTable:
    def test_contains_header_and_rows(self, front):
        table = format_front_table(front)
        assert "optrr" in table
        assert "privacy" in table
        assert "0.2000" in table

    def test_empty_front(self):
        table = format_front_table(ParetoFront.from_points("empty", []))
        assert "(empty)" in table

    def test_subsamples_long_fronts(self):
        pairs = [(i / 200, 1e-4) for i in range(100)]
        front = ParetoFront.from_points("long", pairs, keep_dominated=True)
        table = format_front_table(front, max_rows=10)
        # Header + column header + at most 10 data rows.
        assert len(table.splitlines()) <= 12


class TestComparisonTable:
    def test_contains_names_and_counts(self, front, baseline):
        comparison = compare_fronts(front, baseline)
        table = format_comparison_table([comparison])
        assert "optrr" in table
        assert "warner" in table

    def test_empty_input(self):
        assert "no comparisons" in format_comparison_table([])


class TestPaperVsMeasured:
    def test_reproduced_flag(self):
        line = format_paper_vs_measured("fig4a", "claim", "measured", True)
        assert line.startswith("[REPRODUCED]")
        assert "fig4a" in line

    def test_diverged_flag(self):
        line = format_paper_vs_measured("fig4a", "claim", "measured", False)
        assert line.startswith("[DIVERGED]")
