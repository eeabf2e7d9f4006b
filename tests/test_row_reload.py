"""Rows that re-enter the system from outside the catalog — a reloaded
dense-region cache, a decoded wire answer — come back equal to the originals
and as read-only rows, like every row the catalog builds."""

import pytest

from repro.core.dense_index import DenseRegionIndex
from repro.core.regions import HyperRectangle
from repro.httpsim import wire
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.query import RangePredicate, SearchQuery


def assert_read_only_copies(reloaded, originals):
    assert reloaded and list(reloaded) == list(originals)
    for row in reloaded:
        with pytest.raises(TypeError):
            row["price"] = -1.0


def test_a_dense_region_cache_reloads_read_only_rows(bluenile_db, tmp_path):
    interval = RangePredicate("price", 500.0, 800.0)
    originals = bluenile_db.all_matches(SearchQuery((interval,), ()))
    path = str(tmp_path / "dense.sqlite")
    first = DenseRegionCache(bluenile_db.schema, path=path)
    DenseRegionIndex(bluenile_db.schema, cache=first).add_region(
        HyperRectangle((interval,)), originals
    )
    first.close()
    second = DenseRegionCache(bluenile_db.schema, path=path)
    try:
        reloaded = DenseRegionIndex(bluenile_db.schema, cache=second).rows_in(
            HyperRectangle((interval,))
        )
    finally:
        second.close()
    key = bluenile_db.key_column
    assert_read_only_copies(
        sorted(reloaded, key=lambda row: row[key]),
        sorted(originals, key=lambda row: row[key]),
    )


def test_a_decoded_wire_answer_holds_read_only_rows(bluenile_db):
    query = SearchQuery.build(ranges={"price": (500.0, 4000.0)})
    original = bluenile_db.search(query)
    payload = wire.encode_result(original, bluenile_db.key_column)
    decoded = wire.decode_result(payload, query)
    assert decoded.outcome is original.outcome
    assert_read_only_copies(decoded.rows, original.rows)
