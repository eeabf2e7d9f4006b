"""Tests for the on-the-fly dense-region index.

Most tests run against both implementations (``interval`` — the sublinear
coalescing structure — and ``naive`` — the seed's linear reference); behaviour
they share is the contract.  Coalescing semantics and shared-immutable-row
semantics are interval-only and tested separately.
"""

import pytest

from repro.core.dense_index import DenseRegionIndex, IndexedRegion
from repro.core.regions import HyperRectangle
from repro.exceptions import DenseRegionError
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.delta import CatalogDelta
from repro.webdb.query import RangePredicate, SearchQuery
from tests.reference import NaiveDenseRegionIndex

#: The production index and its linear reference oracle, by ``describe()["impl"]``.
INDEXES = {"interval": DenseRegionIndex, "naive": NaiveDenseRegionIndex}


ROWS = [
    {"id": "a", "price": 10.0, "carat": 1.0},
    {"id": "b", "price": 20.0, "carat": 1.5},
    {"id": "c", "price": 30.0, "carat": 2.0},
]


@pytest.fixture(params=["interval", "naive"])
def index(request, diamond_schema_fixture) -> DenseRegionIndex:
    return INDEXES[request.param](diamond_schema_fixture)


@pytest.fixture()
def interval_index(diamond_schema_fixture) -> DenseRegionIndex:
    return DenseRegionIndex(diamond_schema_fixture)


@pytest.fixture()
def naive_index(diamond_schema_fixture) -> NaiveDenseRegionIndex:
    return NaiveDenseRegionIndex(diamond_schema_fixture)


class TestCoverage:
    def test_interval_coverage(self, index):
        index.add_interval("price", 0.0, 100.0, ROWS)
        assert index.lookup_interval("price", RangePredicate("price", 10.0, 50.0)) is not None
        assert index.lookup_interval("price", RangePredicate("price", 50.0, 150.0)) is None
        assert index.lookup_interval("carat", RangePredicate("carat", 1.0, 2.0)) is None

    def test_box_coverage_same_signature_only(self, index):
        box = HyperRectangle.from_bounds({"price": (0.0, 100.0), "carat": (0.0, 3.0)})
        index.add_region(box, ROWS)
        inner = HyperRectangle.from_bounds({"price": (10.0, 20.0), "carat": (1.0, 2.0)})
        assert index.lookup(inner) is not None
        # A 1D question is not answered by the 2D region.
        assert index.lookup_interval("price", RangePredicate("price", 10.0, 20.0)) is None

    def test_half_open_request_covered_by_closed_region(self, index):
        index.add_interval("price", 0.0, 100.0, ROWS)
        half_open = RangePredicate("price", 10.0, 100.0, include_lower=False)
        assert index.lookup_interval("price", half_open) is not None

    def test_rows_in_requires_coverage(self, index):
        with pytest.raises(DenseRegionError):
            index.rows_in(HyperRectangle.from_bounds({"price": (0.0, 1.0)}))


class TestLookups:
    def test_lookup_filters_by_interval(self, index):
        index.add_interval("price", 0.0, 100.0, ROWS)
        rows = index.lookup_interval("price", RangePredicate("price", 15.0, 100.0))
        assert {row["id"] for row in rows} == {"b", "c"}

    def test_lookup_filters_by_base_query(self, index):
        index.add_interval("price", 0.0, 100.0, ROWS)
        base = SearchQuery.build(ranges={"carat": (1.4, 3.0)})
        rows = index.lookup_interval("price", RangePredicate("price", 0.0, 100.0), base)
        assert {row["id"] for row in rows} == {"b", "c"}

    def test_lookup_single_pass(self, index):
        index.add_interval("price", 0.0, 100.0, ROWS)
        rows = index.lookup_interval("price", RangePredicate("price", 15.0, 100.0))
        assert rows is not None
        assert {row["id"] for row in rows} == {"b", "c"}
        # Uncovered: None (not an exception, unlike rows_in).
        assert index.lookup_interval("price", RangePredicate("price", 50.0, 150.0)) is None
        # Covered but empty: [] — distinguishable from a miss.
        empty = index.lookup_interval("price", RangePredicate("price", 11.0, 12.0))
        assert empty == []

    def test_lookup_md_box(self, index):
        box = HyperRectangle.from_bounds({"price": (0.0, 100.0), "carat": (0.0, 3.0)})
        index.add_region(box, ROWS)
        inner = HyperRectangle.from_bounds({"price": (5.0, 25.0), "carat": (0.5, 1.6)})
        rows = index.lookup(inner)
        assert rows is not None
        assert {row["id"] for row in rows} == {"a", "b"}
        outer = HyperRectangle.from_bounds({"price": (0.0, 200.0), "carat": (0.0, 3.0)})
        assert index.lookup(outer) is None

    def test_callers_cannot_mutate_index_state(self, index):
        """Mutating what a lookup returned must never corrupt the index:
        the naive impl hands out copies, the interval impl hands out shared
        *immutable* mappings (no per-call copies)."""
        index.add_interval("price", 0.0, 100.0, ROWS)
        rows = index.lookup_interval("price", RangePredicate("price", 0.0, 100.0))
        try:
            rows[0]["price"] = -1
        except TypeError:
            pass  # interval impl: immutable mapping refuses the write
        again = index.lookup_interval("price", RangePredicate("price", 0.0, 100.0))
        assert all(row["price"] >= 0 for row in again)

    def test_interval_rows_are_shared_immutable(self, interval_index):
        interval_index.add_interval("price", 0.0, 100.0, ROWS)
        first = interval_index.lookup_interval("price", RangePredicate("price", 0.0, 100.0))
        second = interval_index.lookup_interval("price", RangePredicate("price", 0.0, 100.0))
        # Same underlying objects (no dict() copies on the read path) ...
        assert {id(row) for row in first} == {id(row) for row in second}
        # ... and every one of them rejects mutation.
        for row in first:
            with pytest.raises(TypeError):
                row["price"] = -1

    def test_add_region_does_not_alias_caller_rows(self, index):
        mine = [dict(row) for row in ROWS]
        index.add_interval("price", 0.0, 100.0, mine)
        mine[0]["price"] = -999.0
        rows = index.lookup_interval("price", RangePredicate("price", 0.0, 100.0))
        assert all(row["price"] >= 0 for row in rows)


class TestCoalescing:
    def test_adjacent_intervals_merge(self, interval_index):
        interval_index.add_interval("price", 0.0, 15.0, ROWS[:1])
        interval_index.add_interval("price", 15.0, 35.0, ROWS[1:])
        assert interval_index.region_count() == 1
        assert interval_index.describe()["coalesced"] == 1
        # The union is covered even though neither inserted region covers it.
        probe = RangePredicate("price", 5.0, 25.0)
        rows = interval_index.lookup_interval("price", probe)
        assert rows is not None and {row["id"] for row in rows} == {"a", "b"}

    def test_naive_does_not_merge(self, naive_index):
        naive_index.add_interval("price", 0.0, 15.0, ROWS[:1])
        naive_index.add_interval("price", 15.0, 35.0, ROWS[1:])
        assert naive_index.region_count() == 2
        assert naive_index.lookup_interval("price", RangePredicate("price", 5.0, 25.0)) is None

    def test_overlapping_intervals_dedup_rows(self, interval_index):
        interval_index.add_interval("price", 0.0, 25.0, ROWS[:2])
        interval_index.add_interval("price", 15.0, 40.0, ROWS[1:])
        assert interval_index.region_count() == 1
        # "b" sits in both inserted regions but is stored once.
        assert interval_index.tuple_count() == 3
        rows = interval_index.lookup_interval("price", RangePredicate("price", 0.0, 40.0))
        assert sorted(row["id"] for row in rows) == ["a", "b", "c"]

    def test_nested_interval_absorbed(self, interval_index):
        interval_index.add_interval("price", 0.0, 100.0, ROWS)
        interval_index.add_interval("price", 10.0, 20.0, ROWS[:2])
        assert interval_index.region_count() == 1
        assert interval_index.tuple_count() == 3

    def test_gap_prevents_merge(self, interval_index):
        interval_index.add_interval("price", 0.0, 10.0, ROWS[:1])
        interval_index.add_interval("price", 20.0, 40.0, ROWS[1:])
        assert interval_index.region_count() == 2
        assert interval_index.lookup_interval("price", RangePredicate("price", 5.0, 25.0)) is None

    def test_one_insert_bridges_many_regions(self, interval_index):
        interval_index.add_interval("price", 0.0, 10.0, ROWS[:1])
        interval_index.add_interval("price", 20.0, 30.0, ROWS[2:])
        interval_index.add_interval("price", 5.0, 25.0, ROWS[1:2])
        assert interval_index.region_count() == 1
        rows = interval_index.lookup_interval("price", RangePredicate("price", 0.0, 30.0))
        assert sorted(row["id"] for row in rows) == ["a", "b", "c"]

    def test_stackable_md_boxes_merge(self, interval_index):
        left = HyperRectangle.from_bounds({"price": (0.0, 20.0), "carat": (0.0, 3.0)})
        right = HyperRectangle.from_bounds({"price": (20.0, 40.0), "carat": (0.0, 3.0)})
        interval_index.add_region(left, ROWS[:2])
        interval_index.add_region(right, ROWS[2:])
        assert interval_index.region_count() == 1
        spanning = HyperRectangle.from_bounds({"price": (10.0, 30.0), "carat": (1.0, 2.0)})
        rows = interval_index.lookup(spanning)
        assert rows is not None
        assert {row["id"] for row in rows} == {"a", "b", "c"}

    def test_misaligned_md_boxes_do_not_merge(self, interval_index):
        a = HyperRectangle.from_bounds({"price": (0.0, 20.0), "carat": (0.0, 2.0)})
        b = HyperRectangle.from_bounds({"price": (20.0, 40.0), "carat": (0.0, 3.0)})
        interval_index.add_region(a, ROWS[:2])
        interval_index.add_region(b, ROWS[2:])
        # Their union is L-shaped, not a box: merging would claim uncrawled
        # space, so they must stay separate.
        assert interval_index.region_count() == 2
        spanning = HyperRectangle.from_bounds({"price": (10.0, 30.0), "carat": (0.0, 2.5)})
        assert interval_index.lookup(spanning) is None


class TestBookkeeping:
    def test_counts_and_signatures(self, index):
        index.add_interval("price", 0.0, 50.0, ROWS[:2])
        index.add_region(
            HyperRectangle.from_bounds({"price": (0.0, 50.0), "carat": (0.0, 3.0)}), ROWS
        )
        assert index.region_count() == 2
        assert index.tuple_count() == 5
        description = index.describe()
        assert description["per_signature"] == {"price": 1, "carat+price": 1}
        assert description["regions"] == 2 and not description["persistent"]
        assert description["impl"] == index.impl

    def test_a_delta_retires_only_the_regions_it_reaches(self, index):
        index.add_interval("price", 0.0, 15.0, ROWS[:1])
        index.add_interval("price", 25.0, 35.0, ROWS[2:])
        index.add_region(
            HyperRectangle.from_bounds({"price": (0.0, 50.0), "carat": (0.0, 1.2)}), ROWS[:1]
        )
        # Row "a" lies in the first interval and in the box; "c" is untouched.
        delta = CatalogDelta.from_rows("db", "id", ROWS[:1])
        assert index.invalidate_delta(delta) == 2
        assert index.region_count() == 1 and index.tuple_count() == 1
        description = index.describe()
        assert description["delta_retired"] == 2
        # A signature left with no region is gone from the summary.
        assert description["per_signature"] == {"price": 1}
        assert index.lookup_interval("price", RangePredicate("price", 5.0, 10.0)) is None
        assert index.lookup_interval("price", RangePredicate("price", 28.0, 32.0)) == ROWS[2:]

    def test_counters_track_coalescing(self, interval_index):
        interval_index.add_interval("price", 0.0, 20.0, ROWS[:2])
        interval_index.add_interval("price", 20.0, 40.0, ROWS[2:])
        assert interval_index.region_count() == 1
        assert interval_index.tuple_count() == 3
        description = interval_index.describe()
        assert description["regions"] == 1
        assert description["tuples"] == 3
        assert description["coalesced"] == 1

    def test_lookup_counters(self, interval_index):
        interval_index.add_interval("price", 0.0, 50.0, ROWS)
        interval_index.lookup_interval("price", RangePredicate("price", 0.0, 10.0))
        interval_index.lookup_interval("price", RangePredicate("price", 60.0, 90.0))
        description = interval_index.describe()
        assert description["lookups"] == 2
        assert description["hits"] == 1

    def test_cached_region_attributes(self):
        box = HyperRectangle.from_bounds({"price": (0.0, 50.0), "carat": (0.0, 3.0)})
        region = IndexedRegion(box=box, rows=list(ROWS))
        # Computed once at construction, in sorted order.
        assert region.attributes == ("carat", "price")
        assert region.attributes is region.attributes


class TestPersistence:
    @pytest.mark.parametrize("impl", ["interval", "naive"])
    def test_regions_survive_reload(self, diamond_schema_fixture, tmp_path, impl):
        path = str(tmp_path / f"dense-{impl}.sqlite")
        cache = DenseRegionCache(diamond_schema_fixture, path=path)
        first = INDEXES[impl](diamond_schema_fixture, cache=cache)
        rows = [
            {
                "id": f"d{i}",
                "price": 1000.0 + i,
                "carat": 1.0,
                "depth": 60.0,
                "table": 55.0,
                "length_width_ratio": 1.0,
                "shape": "round",
                "cut": "ideal",
                "color": "D",
                "clarity": "IF",
            }
            for i in range(4)
        ]
        first.add_interval("length_width_ratio", 1.0, 1.0, rows)
        cache.close()

        cache2 = DenseRegionCache(diamond_schema_fixture, path=path)
        second = INDEXES[impl](diamond_schema_fixture, cache=cache2)
        point = RangePredicate("length_width_ratio", 1.0, 1.0)
        rows = second.lookup_interval("length_width_ratio", point)
        assert rows is not None and len(rows) == 4
        assert second.describe()["persistent"]
        cache2.close()
