"""Tests for the persistent dense-region cache."""

import sqlite3

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


class TestDenseRegionCache:
    def test_store_and_list_regions(self, schema):
        cache = DenseRegionCache(schema)
        stored = cache.store_region({"ratio": (1.0, 1.0)})
        assert stored.region_id >= 1
        assert cache.regions() == [stored]
        assert stored.bounds == {"ratio": (1.0, 1.0)}

    def test_store_region_requires_bounds(self, schema):
        cache = DenseRegionCache(schema)
        with pytest.raises(DenseRegionError):
            cache.store_region({})

    def test_store_region_rejects_inverted_bounds(self, schema):
        cache = DenseRegionCache(schema)
        with pytest.raises(DenseRegionError):
            cache.store_region({"price": (5.0, 1.0)})

    def test_md_region_bounds(self, schema):
        cache = DenseRegionCache(schema)
        stored = cache.store_region({"price": (0.0, 10.0), "ratio": (0.9, 1.1)})
        assert cache.regions() == [stored]

    def test_drop(self, schema):
        cache = DenseRegionCache(schema)
        stored = cache.store_region({"price": (0.0, 5.0)})
        kept = cache.store_region({"price": (5.0, 9.0)})
        cache.drop_region(stored.region_id)
        assert cache.regions() == [kept]

    def test_a_dropped_region_leaves_nothing_behind(self, schema, tmp_path):
        """The store holds boxes only: five rounds of store-then-drop leave
        every table of the file empty."""
        path = str(tmp_path / "cache.sqlite")
        cache = DenseRegionCache(schema, path=path)
        for _ in range(5):
            cache.drop_region(cache.store_region({"price": (0.0, 5.0)}).region_id)
        cache.close()
        connection = sqlite3.connect(path)
        tables = [name for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        )]
        assert tables and all(
            connection.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0] == 0
            for name in tables
        )
        connection.close()

    def test_persistence_across_instances(self, schema, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        first = DenseRegionCache(schema, path=path)
        stored = first.store_region({"ratio": (1.0, 1.0)})
        first.close()
        second = DenseRegionCache(schema, path=path)
        assert second.regions() == [stored]
        second.close()


class TestVerify:
    """``verify`` keeps a region its crawl read whole and drops the rest."""

    def test_every_region_is_crawled_and_the_unverified_dropped(self, schema):
        cache = DenseRegionCache(schema)
        kept = cache.store_region({"price": (0.0, 2.0)})
        cache.store_region({"ratio": (1.0, 1.0)})
        crawled = []

        def crawl(bounds):
            crawled.append(dict(bounds))
            return "ratio" not in bounds  # the ratio region's crawl was degraded

        counters = cache.verify(crawl)
        assert counters == {"checked": 2, "refreshed": 1, "unchanged": 1}
        assert sorted(crawled, key=sorted) == [{"price": (0.0, 2.0)}, {"ratio": (1.0, 1.0)}]
        assert cache.regions() == [kept]

    def test_an_empty_store_checks_nothing(self, schema):
        cache = DenseRegionCache(schema)
        assert cache.verify(lambda bounds: True) == {"checked": 0, "refreshed": 0, "unchanged": 0}
