"""Tests for search-query predicates and their algebra."""

import math
from dataclasses import replace

import pytest

from repro.exceptions import QueryError
from repro.httpsim import wire
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery


class TestRangePredicate:
    def test_matches_inclusive_bounds(self):
        predicate = RangePredicate("price", 10, 20)
        assert predicate.matches(10) and predicate.matches(20) and predicate.matches(15)
        assert not predicate.matches(9.99) and not predicate.matches(20.01)

    def test_matches_exclusive_bounds(self):
        predicate = RangePredicate("price", 10, 20, include_lower=False, include_upper=False)
        assert not predicate.matches(10) and not predicate.matches(20)
        assert predicate.matches(10.01)

    def test_inverted_range_rejected(self):
        with pytest.raises(QueryError):
            RangePredicate("price", 20, 10)

    def test_degenerate_exclusive_rejected(self):
        with pytest.raises(QueryError):
            RangePredicate("price", 10, 10, include_lower=False)

    @pytest.mark.parametrize("lower, upper", [(math.nan, 5.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_bound_rejected(self, lower, upper, diamond_schema_fixture):
        with pytest.raises(QueryError):
            RangePredicate("price", lower, upper)
        with pytest.raises(QueryError):
            SearchQuery.build(ranges={"price": (lower, upper)})
        params = {"price_min": repr(lower), "price_max": repr(upper)}
        with pytest.raises(QueryError):
            wire.decode_query(params, diamond_schema_fixture)

    def test_point_predicate(self):
        predicate = RangePredicate("price", 10, 10)
        assert predicate.width == 0 and predicate.matches(10)

    def test_width(self):
        assert RangePredicate("price", 10, 30).width == 20
        assert RangePredicate("price").width == math.inf

    def test_intersect_overlapping(self):
        a = RangePredicate("price", 10, 30)
        b = RangePredicate("price", 20, 40)
        merged = a.intersect(b)
        assert merged is not None
        assert (merged.lower, merged.upper) == (20, 30)

    def test_intersect_disjoint_returns_none(self):
        assert RangePredicate("price", 0, 10).intersect(RangePredicate("price", 20, 30)) is None

    def test_intersect_boundary_exclusive(self):
        a = RangePredicate("price", 0, 10, include_upper=False)
        b = RangePredicate("price", 10, 20)
        assert a.intersect(b) is None

    def test_intersect_respects_exclusivity(self):
        a = RangePredicate("price", 0, 10, include_lower=False)
        b = RangePredicate("price", 0, 5)
        merged = a.intersect(b)
        assert merged is not None
        assert merged.lower == 0 and not merged.include_lower

    def test_intersect_different_attributes_rejected(self):
        with pytest.raises(QueryError):
            RangePredicate("price", 0, 1).intersect(RangePredicate("carat", 0, 1))

    def test_split(self):
        low, high = RangePredicate("price", 0, 10).split(4)
        assert (low.lower, low.upper, low.include_upper) == (0, 4, True)
        assert (high.lower, high.upper, high.include_lower) == (4, 10, False)
        assert not any(low.matches(v) and high.matches(v) for v in (0, 2, 4, 4.1, 10))

    def test_split_outside_range_rejected(self):
        with pytest.raises(QueryError):
            RangePredicate("price", 0, 10).split(11)

    def test_describe(self):
        text = RangePredicate("price", 0, 10, include_upper=False).describe()
        assert "price" in text and "[" in text and ")" in text


class TestInPredicate:
    def test_matches(self):
        predicate = InPredicate.of("cut", ["good", "ideal"])
        assert predicate.matches("good") and not predicate.matches("fair")

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            InPredicate("cut", frozenset())

    def test_intersect(self):
        a = InPredicate.of("cut", ["good", "ideal"])
        b = InPredicate.of("cut", ["ideal", "astor"])
        merged = a.intersect(b)
        assert merged is not None and merged.values == frozenset({"ideal"})

    def test_intersect_disjoint(self):
        a = InPredicate.of("cut", ["good"])
        b = InPredicate.of("cut", ["ideal"])
        assert a.intersect(b) is None

    def test_intersect_wrong_attribute(self):
        with pytest.raises(QueryError):
            InPredicate.of("cut", ["good"]).intersect(InPredicate.of("color", ["D"]))

    def test_describe_sorted(self):
        assert "cut in {good, ideal}" == InPredicate.of("cut", ["ideal", "good"]).describe()


class TestSearchQuery:
    def test_everything_matches_all(self):
        assert SearchQuery.everything().matches({"price": 5, "cut": "good"})

    def test_build_and_match(self):
        query = SearchQuery.build(
            ranges={"price": (10, 20)}, memberships={"cut": ["good"]}
        )
        assert query.matches({"price": 15, "cut": "good"})
        assert not query.matches({"price": 15, "cut": "ideal"})
        assert not query.matches({"price": 25, "cut": "good"})

    def test_match_requires_numeric_value(self):
        query = SearchQuery.build(ranges={"price": (10, 20)})
        assert not query.matches({"price": "expensive"})
        assert not query.matches({})

    def test_duplicate_predicates_rejected(self):
        with pytest.raises(QueryError):
            SearchQuery(
                ranges=(RangePredicate("price", 0, 1), RangePredicate("price", 2, 3))
            )

    def test_with_range_intersects_existing(self):
        query = SearchQuery.build(ranges={"price": (0, 100)})
        narrowed = query.with_range(RangePredicate("price", 50, 200))
        predicate = narrowed.range_on("price")
        assert predicate is not None
        assert (predicate.lower, predicate.upper) == (50, 100)

    def test_with_range_empty_intersection_raises(self):
        query = SearchQuery.build(ranges={"price": (0, 10)})
        with pytest.raises(QueryError):
            query.with_range(RangePredicate("price", 20, 30))

    def test_with_membership_intersects(self):
        query = SearchQuery.build(memberships={"cut": ["good", "ideal"]})
        narrowed = query.with_membership(InPredicate.of("cut", ["ideal", "astor"]))
        membership = narrowed.membership_on("cut")
        assert membership is not None and membership.values == frozenset({"ideal"})

    def test_without_attribute(self):
        query = SearchQuery.build(ranges={"price": (0, 10)}, memberships={"cut": ["good"]})
        assert query.without_attribute("price").range_on("price") is None
        assert query.without_attribute("cut").membership_on("cut") is None

    def test_effective_range_uses_domain_when_unconstrained(self, diamond_schema_fixture):
        query = SearchQuery.everything()
        effective = query.effective_range("price", diamond_schema_fixture)
        assert (effective.lower, effective.upper) == diamond_schema_fixture.domain_bounds("price")

    def test_effective_range_uses_explicit_predicate(self, diamond_schema_fixture):
        query = SearchQuery.build(ranges={"price": (500, 1000)})
        effective = query.effective_range("price", diamond_schema_fixture)
        assert (effective.lower, effective.upper) == (500, 1000)

    def test_validate_against_schema(self, diamond_schema_fixture):
        query = SearchQuery.build(ranges={"price": (500, 1000)}, memberships={"cut": ["ideal"]})
        query.validate(diamond_schema_fixture)
        with pytest.raises(Exception):
            SearchQuery.build(ranges={"missing": (0, 1)}).validate(diamond_schema_fixture)
        with pytest.raises(QueryError):
            SearchQuery.build(memberships={"cut": ["not-a-cut"]}).validate(diamond_schema_fixture)

    def test_canonical_key_is_order_insensitive(self):
        a = SearchQuery.build(ranges={"price": (0, 1), "carat": (1, 2)})
        b = SearchQuery.build(ranges={"carat": (1, 2), "price": (0, 1)})
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_is_computed_once(self):
        a = SearchQuery.build(ranges={"price": (0, 1), "carat": (1, 2)})
        b = SearchQuery.build(ranges={"carat": (1, 2), "price": (0, 1)})
        key = a.canonical_key()
        assert key == b.canonical_key()
        assert a.canonical_key() is key
        # The memo is not a field: it never reaches equality or a copy.
        assert a == SearchQuery(a.ranges, a.memberships)
        narrowed = replace(a, ranges=(RangePredicate("price", 0.0, 0.5),))
        assert narrowed.canonical_key() != key

    def test_describe(self):
        query = SearchQuery.build(ranges={"price": (0, 1)}, memberships={"cut": ["good"]})
        text = query.describe()
        assert "price" in text and "cut" in text and " AND " in text
        assert SearchQuery.everything().describe() == "TRUE"

    def test_constrained_attributes(self):
        query = SearchQuery.build(ranges={"price": (0, 1)}, memberships={"cut": ["good"]})
        assert set(query.constrained_attributes) == {"price", "cut"}


class TestContainmentAlgebra:
    def test_range_contains_narrower(self):
        wide = RangePredicate("price", 0.0, 100.0)
        assert wide.contains(RangePredicate("price", 10.0, 90.0))
        assert wide.contains(RangePredicate("price", 0.0, 100.0))
        assert not wide.contains(RangePredicate("price", -1.0, 50.0))
        assert not wide.contains(RangePredicate("price", 50.0, 101.0))

    def test_range_contains_respects_exclusive_bounds(self):
        open_ended = RangePredicate("price", 0.0, 100.0, include_upper=False)
        # The closed range reaches 100.0, which the open range excludes.
        assert not open_ended.contains(RangePredicate("price", 0.0, 100.0))
        assert open_ended.contains(
            RangePredicate("price", 0.0, 100.0, include_upper=False)
        )
        assert open_ended.contains(RangePredicate("price", 0.0, 99.0))
        open_start = RangePredicate("price", 0.0, 100.0, include_lower=False)
        assert not open_start.contains(RangePredicate("price", 0.0, 50.0))
        assert open_start.contains(
            RangePredicate("price", 0.0, 50.0, include_lower=False)
        )

    def test_range_contains_unbounded(self):
        everything = RangePredicate("price")
        assert everything.contains(RangePredicate("price", -1e9, 1e9))
        assert everything.contains(everything)

    def test_range_contains_wrong_attribute_rejected(self):
        with pytest.raises(QueryError):
            RangePredicate("price").contains(RangePredicate("carat"))

    def test_in_contains_subset(self):
        wide = InPredicate.of("cut", ["good", "ideal", "fair"])
        assert wide.contains(InPredicate.of("cut", ["good"]))
        assert wide.contains(InPredicate.of("cut", ["good", "ideal", "fair"]))
        assert not wide.contains(InPredicate.of("cut", ["good", "premium"]))
        with pytest.raises(QueryError):
            wide.contains(InPredicate.of("color", ["D"]))

    def test_query_contains_fewer_or_wider_predicates(self):
        wide = SearchQuery.build(ranges={"price": (0, 100)})
        narrow = SearchQuery.build(
            ranges={"price": (10, 90), "carat": (1, 2)},
            memberships={"cut": ["good"]},
        )
        assert wide.contains(narrow)
        assert not narrow.contains(wide)
        assert SearchQuery.everything().contains(narrow)
        assert SearchQuery.everything().contains(SearchQuery.everything())

    def test_query_containment_needs_same_kind_predicate(self):
        # A membership on the attribute never implies the range (and vice
        # versa): containment must be conservative across predicate kinds.
        by_range = SearchQuery.build(ranges={"x": (0, 1)})
        by_membership = SearchQuery.build(memberships={"x": ["0.5"]})
        assert not by_range.contains(by_membership)
        assert not by_membership.contains(by_range)

    def test_query_containment_unconstrained_attribute_not_implied(self):
        constrained = SearchQuery.build(ranges={"price": (0, 100)})
        assert not constrained.contains(SearchQuery.everything())

    def test_contained_rows_actually_match(self):
        wide = SearchQuery.build(ranges={"price": (0, 100)})
        narrow = SearchQuery.build(ranges={"price": (25, 75)}, memberships={"cut": ["good"]})
        assert wide.contains(narrow)
        row = {"price": 50.0, "cut": "good"}
        assert narrow.matches(row) and wide.matches(row)


class TestMatchesRegressions:
    def test_nan_never_matches_a_range(self):
        """A NaN value compares False against both bounds, so before the
        explicit rejection it satisfied *every* range predicate."""
        predicate = RangePredicate("x", 0.0, 10.0)
        assert not predicate.matches(math.nan)
        assert not RangePredicate("x").matches(math.nan)  # even unbounded
        query = SearchQuery.build(ranges={"x": (0.0, 10.0)})
        assert not query.matches({"x": math.nan})
        assert query.matches({"x": 5.0})

    def test_bool_never_matches_a_range(self):
        """``bool`` is an ``int`` subclass; ``True`` must not satisfy a range
        containing ``1.0``."""
        query = SearchQuery.build(ranges={"x": (0.0, 2.0)})
        assert not query.matches({"x": True})
        assert not query.matches({"x": False})
        assert query.matches({"x": 1})
        assert query.matches({"x": 1.0})

    def test_bool_still_matches_membership(self):
        query = SearchQuery(memberships=(InPredicate("flag", frozenset([True])),))
        assert query.matches({"flag": True})
        assert not query.matches({"flag": False})
