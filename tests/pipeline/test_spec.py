"""Tests for pipeline specification, scheme resolution and cache keys."""

from __future__ import annotations

import pytest

import repro
from repro.core.result import FrontRow, OptimizationResult
from repro.exceptions import ValidationError
from repro.pipeline.spec import (
    PipelineScheme,
    parse_seed_argument,
    plan_pipeline,
    resolve_scheme_argument,
    schemes_from_front,
)
from repro.rr.schemes import warner_matrix
from tests.oracles.individual import result_from_rows


class TestParseSeedArgument:
    def test_count(self):
        assert parse_seed_argument("5") == (0, 1, 2, 3, 4)

    def test_inclusive_range(self):
        assert parse_seed_argument("0-4") == (0, 1, 2, 3, 4)
        assert parse_seed_argument("2-4") == (2, 3, 4)

    def test_comma_list(self):
        assert parse_seed_argument("0,3,7") == (0, 3, 7)

    @pytest.mark.parametrize("text", ["", "x", "1-", "-3", "0,0", "4-2", "0"])
    def test_invalid_forms_rejected(self, text):
        with pytest.raises(ValidationError):
            parse_seed_argument(text)

    def test_specific_messages_reach_the_caller(self):
        # ValidationError subclasses ValueError; the precise messages must
        # not be swallowed by the generic cannot-parse wrapper.
        with pytest.raises(ValidationError, match="is empty"):
            parse_seed_argument("4-2")
        with pytest.raises(ValidationError, match="at least one seed"):
            parse_seed_argument("0")


class TestResolveSchemeArgument:
    def test_family_member(self):
        scheme = resolve_scheme_argument("warner:0.8", 5)
        assert scheme.name == "warner:0.8"
        assert scheme.matrix.isclose(warner_matrix(5, 0.8))

    def test_up_alias(self):
        assert resolve_scheme_argument("up:0.7", 4).matrix.n_categories == 4

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValidationError, match="family:parameter"):
            resolve_scheme_argument("warner", 5)

    def test_non_numeric_parameter_rejected(self):
        with pytest.raises(ValidationError, match="not a number"):
            resolve_scheme_argument("warner:high", 5)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            resolve_scheme_argument("nope:0.5", 5)


def _front(n_points: int, n_categories: int = 4) -> OptimizationResult:
    points = [
        FrontRow(
            privacy=i / max(1, n_points - 1),
            utility=1e-4 * (n_points - i),
            max_posterior=0.5,
            matrix=warner_matrix(n_categories, 0.9 - 0.8 * i / max(1, n_points - 1)),
        )
        for i in range(n_points)
    ]
    return result_from_rows(points)


class TestSchemesFromFront:
    def test_every_point_becomes_a_scheme(self):
        schemes = schemes_from_front(_front(5))
        assert len(schemes) == 5
        assert schemes[0].name.startswith("front[00]@privacy=")

    def test_names_embed_ascending_privacy(self):
        schemes = schemes_from_front(_front(4))
        assert [s.name for s in schemes] == sorted(s.name for s in schemes)

    def test_thinning_keeps_endpoints(self):
        schemes = schemes_from_front(_front(9), max_schemes=3)
        assert len(schemes) == 3
        assert "privacy=0.0000" in schemes[0].name
        assert "privacy=1.0000" in schemes[-1].name

    def test_thinning_noop_when_front_is_small(self):
        assert len(schemes_from_front(_front(3), max_schemes=10)) == 3

    def test_empty_front_rejected(self):
        with pytest.raises(ValidationError, match="no points"):
            schemes_from_front(result_from_rows([]))


class TestPlanPipeline:
    def test_resolves_strings_and_scheme_objects(self):
        ready = PipelineScheme("custom", warner_matrix(10, 0.66))
        spec = plan_pipeline(
            "adult:education", schemes=["warner:0.8", ready],
            miners=["tree"], seeds=[0],
        )
        assert [s.name for s in spec.schemes] == ["warner:0.8", "custom"]

    def test_miner_aliases_canonicalised(self):
        spec = plan_pipeline("normal", schemes=["warner:0.8"], miners=["dist"], seeds=[0])
        assert spec.miners == ("distribution",)

    def test_grid_order_schemes_outer_seeds_middle_miners_inner(self):
        spec = plan_pipeline(
            "normal", schemes=["warner:0.9", "warner:0.5"],
            miners=["tree", "distribution"], seeds=[0, 1],
        )
        cells = [(t.scheme.name, t.seed, t.miner) for t in spec.tasks()]
        assert cells == [
            ("warner:0.9", 0, "tree"), ("warner:0.9", 0, "distribution"),
            ("warner:0.9", 1, "tree"), ("warner:0.9", 1, "distribution"),
            ("warner:0.5", 0, "tree"), ("warner:0.5", 0, "distribution"),
            ("warner:0.5", 1, "tree"), ("warner:0.5", 1, "distribution"),
        ]

    def test_duplicate_scheme_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            plan_pipeline("normal", schemes=["warner:0.8", "warner:0.8"],
                          miners=["tree"], seeds=[0])

    def test_unknown_miner_rejected(self):
        with pytest.raises(ValidationError, match="unknown miner"):
            plan_pipeline("normal", schemes=["warner:0.8"], miners=["nope"], seeds=[0])

    def test_mismatched_scheme_domain_rejected(self):
        wrong = PipelineScheme("small", warner_matrix(3, 0.8))
        with pytest.raises(ValidationError, match="categories"):
            plan_pipeline("adult:education", schemes=[wrong], miners=["tree"], seeds=[0])

    def test_empty_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            plan_pipeline("normal", schemes=[], miners=["tree"], seeds=[0])
        with pytest.raises(ValidationError):
            plan_pipeline("normal", schemes=["warner:0.8"], miners=[], seeds=[0])
        with pytest.raises(ValidationError):
            plan_pipeline("normal", schemes=["warner:0.8"], miners=["tree"], seeds=[])

    def test_miner_options_merge_into_params(self):
        spec = plan_pipeline(
            "normal", schemes=["warner:0.8"], miners=["rules"], seeds=[0],
            miner_options={"rules": {"min_support": 0.2}},
        )
        assert spec.params_for("rules")["min_support"] == 0.2

    def test_unknown_miner_option_key_rejected(self):
        with pytest.raises(ValidationError, match="does not accept"):
            plan_pipeline(
                "normal", schemes=["warner:0.8"], miners=["rules"], seeds=[0],
                miner_options={"rules": {"bogus": 1}},
            )

    def test_miner_options_accept_aliases(self):
        spec = plan_pipeline(
            "normal", schemes=["warner:0.8"], miners=["dist"], seeds=[0],
            miner_options={"dist": {"method": "iterative"}},
        )
        assert spec.params_for("distribution")["method"] == "iterative"

    def test_colliding_alias_and_canonical_options_rejected(self):
        with pytest.raises(ValidationError, match="more than once"):
            plan_pipeline(
                "normal", schemes=["warner:0.8"], miners=["dist"], seeds=[0],
                miner_options={
                    "dist": {"method": "inversion"},
                    "distribution": {"method": "iterative"},
                },
            )

    def test_options_for_absent_miner_rejected(self):
        with pytest.raises(ValidationError, match="not .*part of the pipeline"):
            plan_pipeline(
                "normal", schemes=["warner:0.8"], miners=["tree"], seeds=[0],
                miner_options={"rules": {"min_support": 0.2}},
            )


class TestCacheKeys:
    def _task(self, **overrides):
        spec = plan_pipeline(
            overrides.pop("data", "normal"),
            schemes=overrides.pop("schemes", ["warner:0.8"]),
            miners=overrides.pop("miners", ["tree"]),
            seeds=overrides.pop("seeds", [0]),
            n_records=overrides.pop("n_records", 1000),
        )
        return spec.tasks()[0]

    def test_stable_for_equal_cells(self):
        assert self._task().cache_key() == self._task().cache_key()

    def test_distinct_across_every_grid_dimension(self):
        base = self._task()
        assert base.cache_key() != self._task(schemes=["warner:0.7"]).cache_key()
        assert base.cache_key() != self._task(seeds=[1]).cache_key()
        assert base.cache_key() != self._task(miners=["distribution"]).cache_key()
        assert base.cache_key() != self._task(data="gamma").cache_key()
        assert base.cache_key() != self._task(n_records=2000).cache_key()

    def test_matrix_entries_not_just_name_feed_the_key(self):
        # Two schemes with the same display name but different matrices must
        # never share a cache entry.
        a = plan_pipeline("normal", schemes=[PipelineScheme("x", warner_matrix(10, 0.8))],
                          miners=["tree"], seeds=[0]).tasks()[0]
        b = plan_pipeline("normal", schemes=[PipelineScheme("x", warner_matrix(10, 0.7))],
                          miners=["tree"], seeds=[0]).tasks()[0]
        assert a.cache_key() != b.cache_key()

    def test_version_is_part_of_the_key(self, monkeypatch):
        task = self._task()
        before = task.cache_key()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert task.cache_key() != before

    def test_miner_params_are_part_of_the_key(self):
        default = plan_pipeline("normal", schemes=["warner:0.8"], miners=["rules"],
                                seeds=[0], n_records=1000).tasks()[0]
        tightened = plan_pipeline("normal", schemes=["warner:0.8"], miners=["rules"],
                                  seeds=[0], n_records=1000,
                                  miner_options={"rules": {"min_support": 0.2}}).tasks()[0]
        assert default.cache_key() != tightened.cache_key()
