"""Tests for the box geometry and the rank-contour geometry."""

import math

import pytest

from repro.core import contour, regions
from repro.core.functions import LinearRankingFunction
from repro.core.normalization import MinMaxNormalizer
from repro.exceptions import QueryError
from repro.webdb.query import RangePredicate, SearchQuery


@pytest.fixture()
def box() -> SearchQuery:
    return SearchQuery.build(ranges={"price": (0.0, 100.0), "carat": (1.0, 5.0)})


class TestBoxGeometry:
    def test_closed_bounds(self, box):
        assert box.constrained_attributes == ("price", "carat")
        assert box.range_on("price").width == 100.0
        assert regions.closed_bounds(box) == {"price": (0.0, 100.0), "carat": (1.0, 5.0)}
        half_open = SearchQuery((RangePredicate("price", 0.0, 100.0, False, False),))
        assert regions.closed_bounds(half_open) == {"price": (0.0, 100.0)}

    def test_duplicate_sides_rejected(self):
        with pytest.raises(QueryError):
            SearchQuery((RangePredicate("price", 0, 1), RangePredicate("price", 1, 2)))

    def test_matches(self, box):
        assert box.matches({"price": 50.0, "carat": 2.0})
        assert not box.matches({"price": 500.0, "carat": 2.0})
        assert not box.matches({"price": 50.0})

    def test_contains_rejects_nan_and_bool(self, box):
        """Regression: ``dense_rows`` filters a crawled box's rows with
        ``matches``, so a row the database would never return (a NaN or a
        ``bool`` in a numeric column) must never be replayed from a region."""
        assert not box.matches({"price": math.nan, "carat": 2.0})
        assert not box.matches({"price": True, "carat": 2.0})
        assert not box.matches({"price": 50.0, "carat": False})
        assert box.matches({"price": 50, "carat": 2})  # genuine ints are fine

    def test_covers(self, box):
        inner = SearchQuery.build(ranges={"price": (10.0, 20.0), "carat": (2.0, 3.0)})
        assert box.contains(inner)
        assert not inner.contains(box)
        half_open = SearchQuery(
            (
                RangePredicate("price", 0.0, 100.0, include_lower=False),
                RangePredicate("carat", 1.0, 5.0),
            )
        )
        assert box.contains(half_open)
        assert not half_open.contains(box)

    def test_covers_different_attributes_false(self, box):
        other = SearchQuery.build(ranges={"depth": (0.0, 1.0)})
        assert not box.contains(other)
        assert not other.contains(box)

    def test_closed_bounds_read_back_as_the_box(self, box):
        """The persistent region store keeps ``closed_bounds``; a reload
        builds the same box from them."""
        assert SearchQuery.build(ranges=regions.closed_bounds(box)) == box

    def test_split_partitions_without_overlap(self, box):
        low, high = regions.split(box, "price")
        for value in (0.0, 25.0, 50.0, 50.1, 100.0):
            row = {"price": value, "carat": 2.0}
            assert low.matches(row) != high.matches(row)

    def test_split_at_custom_midpoint(self, box):
        low, high = regions.split(box, "price", midpoint=20.0)
        assert low.range_on("price").upper == 20.0
        assert high.range_on("price").lower == 20.0

    def test_split_rejects_a_midpoint_leaving_an_empty_half(self, box):
        with pytest.raises(QueryError):
            regions.split(box, "price", midpoint=150.0)
        with pytest.raises(QueryError):
            regions.split(box, "price", midpoint=100.0)

    def test_split_keeps_the_side_order(self, box):
        """Each half replaces the split side in place, so a query issued
        from a descent box keeps its predicate order."""
        for half in regions.split(box, "price") + regions.split(box, "carat"):
            assert half.constrained_attributes == ("price", "carat")
            assert half.memberships == ()

    def test_to_query_conjoins_base(self, box):
        base = SearchQuery.build(memberships={"cut": ["ideal"]})
        query = regions.to_query(box, base)
        assert query.range_on("price") is not None
        assert query.membership_on("cut") is not None

    def test_intersect(self, box):
        other = SearchQuery.build(ranges={"price": (50.0, 150.0), "carat": (0.0, 2.0)})
        merged = regions.to_query(other, box)
        assert merged.range_on("price") == RangePredicate("price", 50.0, 100.0)
        assert merged.range_on("carat") == RangePredicate("carat", 1.0, 2.0)
        disjoint = SearchQuery.build(ranges={"price": (200.0, 300.0), "carat": (0.0, 2.0)})
        with pytest.raises(QueryError):
            regions.to_query(disjoint, box)

    def test_relative_widths(self, box, diamond_schema_fixture):
        domain = diamond_schema_fixture.domain_bounds("price")
        price = regions.interval_relative_width(box.range_on("price"), diamond_schema_fixture)
        assert price == pytest.approx(100.0 / (domain[1] - domain[0]))
        carat = regions.interval_relative_width(box.range_on("carat"), diamond_schema_fixture)
        assert regions.max_relative_width(box, diamond_schema_fixture) == max(price, carat)

    def test_widest_attribute(self, diamond_schema_fixture):
        box = SearchQuery.build(ranges={"price": (0.0, 60000.0), "carat": (1.0, 1.1)})
        # price spans its whole domain, carat a sliver.
        assert regions.widest_attribute(box, diamond_schema_fixture) == "price"

    def test_full_space_uses_query_and_domain(self, diamond_schema_fixture):
        base = SearchQuery.build(ranges={"price": (500.0, 1000.0)})
        box = regions.full_space(["price", "carat"], diamond_schema_fixture, base)
        assert box.constrained_attributes == ("price", "carat")
        assert box.range_on("price").lower == 500.0
        assert box.range_on("carat").lower == diamond_schema_fixture.domain_bounds("carat")[0]

    def test_interval_relative_width(self, diamond_schema_fixture):
        predicate = RangePredicate("carat", 1.0, 2.0)
        lower, upper = diamond_schema_fixture.domain_bounds("carat")
        assert regions.interval_relative_width(
            predicate, diamond_schema_fixture
        ) == pytest.approx(1.0 / (upper - lower))

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
        unit = SearchQuery.build(ranges={"price": (0, 1)})
        assert contour.contour_crossing(trimmed, unit, "price", 0.5) is not None
