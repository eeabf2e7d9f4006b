"""Tests for the region algebra and the rank-contour geometry."""

import math

import pytest

from repro.core import contour
from repro.core.functions import LinearRankingFunction
from repro.core.normalization import MinMaxNormalizer
from repro.core.regions import HyperRectangle, interval_relative_width
from repro.exceptions import QueryError
from repro.webdb.query import RangePredicate, SearchQuery


@pytest.fixture()
def box() -> HyperRectangle:
    return HyperRectangle.from_bounds({"price": (0.0, 100.0), "carat": (1.0, 5.0)})


class TestHyperRectangle:
    def test_from_bounds_and_attributes(self, box):
        assert set(box.attributes) == {"price", "carat"}
        assert box.width("price") == 100.0
        assert box.bounds()["carat"] == (1.0, 5.0)

    def test_requires_at_least_one_side(self):
        with pytest.raises(QueryError):
            HyperRectangle(())

    def test_duplicate_sides_rejected(self):
        with pytest.raises(QueryError):
            HyperRectangle((RangePredicate("price", 0, 1), RangePredicate("price", 1, 2)))

    def test_contains(self, box):
        assert box.contains({"price": 50.0, "carat": 2.0})
        assert not box.contains({"price": 500.0, "carat": 2.0})
        assert not box.contains({"price": 50.0})

    def test_contains_rejects_nan_and_bool(self, box):
        """Regression: the region test must use the same value semantics as
        ``SearchQuery.matches`` and the execution engines — a row the
        database would never return must never be replayed from a region."""
        assert not box.contains({"price": math.nan, "carat": 2.0})
        assert not box.contains({"price": True, "carat": 2.0})
        assert not box.contains({"price": 50.0, "carat": False})
        assert box.contains({"price": 50, "carat": 2})  # genuine ints are fine

    def test_split_partitions_without_overlap(self, box):
        low, high = box.split("price")
        for value in (0.0, 25.0, 50.0, 50.1, 100.0):
            row = {"price": value, "carat": 2.0}
            assert low.contains(row) != high.contains(row)

    def test_split_at_custom_midpoint(self, box):
        low, high = box.split("price", midpoint=20.0)
        assert low.side("price").upper == 20.0
        assert high.side("price").lower == 20.0

    def test_replace_side(self, box):
        replaced = box.replace_side(RangePredicate("price", 10.0, 20.0))
        assert replaced.side("price").lower == 10.0
        with pytest.raises(QueryError):
            box.replace_side(RangePredicate("depth", 0, 1))

    def test_to_query_conjoins_base(self, box):
        base = SearchQuery.build(memberships={"cut": ["ideal"]})
        query = box.to_query(base)
        assert query.range_on("price") is not None
        assert query.membership_on("cut") is not None

    def test_intersect(self, box):
        other = HyperRectangle.from_bounds({"price": (50.0, 150.0), "carat": (0.0, 2.0)})
        merged = box.intersect(other)
        assert merged is not None
        assert merged.side("price").lower == 50.0 and merged.side("price").upper == 100.0
        disjoint = HyperRectangle.from_bounds({"price": (200.0, 300.0), "carat": (0.0, 2.0)})
        assert box.intersect(disjoint) is None

    def test_intersect_requires_same_attributes(self, box):
        other = HyperRectangle.from_bounds({"price": (0.0, 1.0)})
        with pytest.raises(QueryError):
            box.intersect(other)

    def test_covers(self, box):
        inner = HyperRectangle.from_bounds({"price": (10.0, 20.0), "carat": (2.0, 3.0)})
        assert box.covers(inner)
        assert not inner.covers(box)
        half_open = HyperRectangle(
            (
                RangePredicate("price", 0.0, 100.0, include_lower=False),
                RangePredicate("carat", 1.0, 5.0),
            )
        )
        assert box.covers(half_open)

    def test_covers_different_attributes_false(self, box):
        other = HyperRectangle.from_bounds({"depth": (0.0, 1.0)})
        assert not box.covers(other)

    def test_relative_widths(self, box, diamond_schema_fixture):
        widths = box.relative_widths(diamond_schema_fixture)
        domain = diamond_schema_fixture.domain_bounds("price")
        assert widths["price"] == pytest.approx(100.0 / (domain[1] - domain[0]))
        assert box.max_relative_width(diamond_schema_fixture) == max(widths.values())

    def test_widest_attribute(self, diamond_schema_fixture):
        box = HyperRectangle.from_bounds({"price": (0.0, 60000.0), "carat": (1.0, 1.1)})
        # price spans its whole domain, carat a sliver.
        assert box.widest_attribute(diamond_schema_fixture) == "price"

    def test_full_space_uses_query_and_domain(self, diamond_schema_fixture):
        base = SearchQuery.build(ranges={"price": (500.0, 1000.0)})
        box = HyperRectangle.full_space(["price", "carat"], diamond_schema_fixture, base)
        assert box.side("price").lower == 500.0
        assert box.side("carat").lower == diamond_schema_fixture.domain_bounds("carat")[0]

    def test_interval_relative_width(self, diamond_schema_fixture):
        predicate = RangePredicate("carat", 1.0, 2.0)
        lower, upper = diamond_schema_fixture.domain_bounds("carat")
        assert interval_relative_width(predicate, diamond_schema_fixture) == pytest.approx(
            1.0 / (upper - lower)
        )

    def test_describe(self, box):
        assert "price" in box.describe() and "carat" in box.describe()


class TestScoreBounds:
    def test_bounds_for_positive_weights(self, box):
        function = LinearRankingFunction({"price": 1.0, "carat": 2.0})
        bounds = contour.score_bounds(function, box)
        assert bounds.minimum == pytest.approx(0.0 + 2.0)
        assert bounds.maximum == pytest.approx(100.0 + 10.0)

    def test_bounds_for_mixed_weights(self, box):
        function = LinearRankingFunction({"price": 1.0, "carat": -1.0})
        bounds = contour.score_bounds(function, box)
        assert bounds.minimum == pytest.approx(0.0 - 5.0)
        assert bounds.maximum == pytest.approx(100.0 - 1.0)

    def test_bounds_with_normalizer(self, box):
        normalizer = MinMaxNormalizer({"price": (0.0, 100.0), "carat": (0.0, 10.0)})
        function = LinearRankingFunction({"price": 1.0, "carat": -1.0}, normalizer=normalizer)
        bounds = contour.score_bounds(function, box)
        assert bounds.minimum == pytest.approx(0.0 - 0.5)
        assert bounds.maximum == pytest.approx(1.0 - 0.1)

    def test_every_corner_within_bounds(self, box):
        function = LinearRankingFunction({"price": 0.7, "carat": -0.3})
        bounds = contour.score_bounds(function, box)
        for price in (0.0, 100.0):
            for carat in (1.0, 5.0):
                score = function.score({"price": price, "carat": carat})
                assert bounds.minimum - 1e-9 <= score <= bounds.maximum + 1e-9


class TestContourCrossing:
    def test_crossing_bounds_the_better_region(self, box):
        function = LinearRankingFunction({"price": 1.0, "carat": 1.0})
        crossing = contour.contour_crossing(function, box, "price", score=30.0)
        # With carat at its best edge (1.0), price must stay below 29.
        assert crossing == pytest.approx(29.0)

    def test_crossing_clamped_to_box(self, box):
        function = LinearRankingFunction({"price": 1.0, "carat": 1.0})
        assert contour.contour_crossing(function, box, "price", score=1e9) == 100.0
        assert contour.contour_crossing(function, box, "price", score=-1e9) == 0.0

    def test_crossing_with_normalizer_is_in_raw_units(self, box):
        normalizer = MinMaxNormalizer({"price": (0.0, 100.0), "carat": (1.0, 5.0)})
        function = LinearRankingFunction({"price": 1.0, "carat": 1.0}, normalizer=normalizer)
        crossing = contour.contour_crossing(function, box, "price", score=0.5)
        assert 0.0 <= crossing <= 100.0
        # carat best edge contributes 0, so price alone must stay <= 0.5
        assert crossing == pytest.approx(50.0)

    def test_zero_weight_returns_none(self, box):
        function = LinearRankingFunction({"price": 1.0, "carat": -1.0})
        trimmed = LinearRankingFunction({"price": 1.0})
        assert contour.contour_crossing(trimmed, HyperRectangle.from_bounds({"price": (0, 1)}), "price", 0.5) is not None
