"""Tests for the persistent dense-region cache."""

import pytest

from repro.dataset.schema import Attribute, Schema
from repro.exceptions import DenseRegionError
from repro.sqlstore.dense_cache import DenseRegionCache


@pytest.fixture()
def schema() -> Schema:
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", 0, 1000),
            Attribute.numeric("ratio", 0, 3),
            Attribute.categorical("kind", ["a", "b"]),
        ),
    )


def _rows(count=6):
    return [
        {"id": f"t{i}", "price": float(i), "ratio": 1.0, "kind": "a"} for i in range(count)
    ]


class TestDenseRegionCache:
    def test_store_and_list_regions(self, schema):
        cache = DenseRegionCache(schema)
        stored = cache.store_region({"ratio": (1.0, 1.0)}, _rows(4))
        assert stored.region_id >= 1
        assert stored.attributes == ("ratio",)
        regions = cache.regions()
        assert len(regions) == 1
        assert regions[0].bounds == {"ratio": (1.0, 1.0)}
        assert cache.tuple_count() == 4

    def test_rows_for_region_roundtrip(self, schema):
        cache = DenseRegionCache(schema)
        stored = cache.store_region({"price": (0.0, 5.0)}, _rows(5))
        rows = cache.rows_for_region(stored)
        assert {row["id"] for row in rows} == {f"t{i}" for i in range(5)}

    def test_store_region_requires_bounds(self, schema):
        cache = DenseRegionCache(schema)
        with pytest.raises(DenseRegionError):
            cache.store_region({}, _rows(2))

    def test_store_region_rejects_inverted_bounds(self, schema):
        cache = DenseRegionCache(schema)
        with pytest.raises(DenseRegionError):
            cache.store_region({"price": (5.0, 1.0)}, _rows(2))

    def test_md_region_bounds(self, schema):
        cache = DenseRegionCache(schema)
        stored = cache.store_region({"price": (0.0, 10.0), "ratio": (0.9, 1.1)}, _rows(3))
        assert stored.attributes == ("price", "ratio")

    def test_drop_and_clear(self, schema):
        cache = DenseRegionCache(schema)
        stored = cache.store_region({"price": (0.0, 5.0)}, _rows(3))
        cache.drop_region(stored.region_id)
        assert cache.regions() == []
        cache.store_region({"price": (0.0, 5.0)}, _rows(3))
        cache.clear()
        assert cache.regions() == [] and cache.tuple_count() == 0

    def test_persistence_across_instances(self, schema, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        first = DenseRegionCache(schema, path=path)
        first.store_region({"ratio": (1.0, 1.0)}, _rows(4))
        first.close()
        second = DenseRegionCache(schema, path=path)
        assert len(second.regions()) == 1
        assert second.tuple_count() == 4
        second.close()

    def test_verify_and_refresh_detects_changes(self, schema):
        cache = DenseRegionCache(schema)
        cache.store_region({"ratio": (1.0, 1.0)}, _rows(3))
        cache.store_region({"price": (0.0, 2.0)}, _rows(2))

        def crawl(bounds):
            if "ratio" in bounds:
                return _rows(5)  # the region grew
            return _rows(2)  # unchanged

        counters = cache.verify_and_refresh(crawl)
        assert counters == {"checked": 2, "refreshed": 1, "unchanged": 1}
        sizes = sorted(len(region.tuple_keys) for region in cache.regions())
        assert sizes == [2, 5]


def _changed(change):
    """The live rows of a stored ``_rows(4)`` region after ``change``."""
    rows = _rows(4)
    if change == "repriced":
        rows[2] = {**rows[2], "price": 500.0}
    elif change == "recategorized":
        rows[2] = {**rows[2], "kind": "b"}
    elif change == "shrunk":
        del rows[2]
    elif change == "swapped":
        rows[2] = {**rows[2], "id": "t9"}
    return rows


class TestBootVerificationByValue:
    """``verify_and_refresh`` compares a region's rows, not only its keys."""

    @pytest.mark.parametrize("change", ["repriced", "recategorized", "shrunk", "swapped"])
    def test_a_region_whose_rows_changed_is_refreshed(self, schema, change):
        cache = DenseRegionCache(schema)
        cache.store_region({"ratio": (1.0, 1.0)}, _rows(4))
        counters = cache.verify_and_refresh(lambda bounds: _changed(change))
        assert counters == {"checked": 1, "refreshed": 1, "unchanged": 0}
        [region] = cache.regions()
        assert sorted(cache.rows_for_region(region), key=lambda row: row["id"]) == sorted(
            _changed(change), key=lambda row: row["id"]
        )

    @pytest.mark.parametrize(
        "live",
        [
            pytest.param(lambda: list(reversed(_rows(4))), id="reordered"),
            pytest.param(
                lambda: [{**row, "price": int(row["price"]), "ratio": 1} for row in _rows(4)],
                id="integral-numbers",
            ),
        ],
    )
    def test_a_region_equal_by_value_is_unchanged(self, schema, live):
        """Row order, and a number's type (the store keeps floats), are not
        changes."""
        cache = DenseRegionCache(schema)
        stored = cache.store_region({"ratio": (1.0, 1.0)}, _rows(4))
        counters = cache.verify_and_refresh(lambda bounds: live())
        assert counters == {"checked": 1, "refreshed": 0, "unchanged": 1}
        assert cache.regions() == [stored]

    def test_integer_keys_stored_as_text_are_unchanged(self, schema):
        rows = [{**row, "id": index} for index, row in enumerate(_rows(4))]
        cache = DenseRegionCache(schema)
        cache.store_region({"ratio": (1.0, 1.0)}, rows)
        counters = cache.verify_and_refresh(lambda bounds: rows)
        assert counters == {"checked": 1, "refreshed": 0, "unchanged": 1}
