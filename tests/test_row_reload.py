"""Rows that re-enter the system from outside the catalog — a reloaded
dense-region cache, a decoded wire answer — come back equal to the originals
and as read-only rows, like every row the catalog builds."""

import pytest

from repro.core.functions import SingleAttributeRanking
from repro.core.reranker import Algorithm, QueryReranker
from repro.httpsim import wire
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.query import SearchQuery


def assert_read_only_copies(reloaded, originals):
    assert reloaded and list(reloaded) == list(originals)
    for row in reloaded:
        with pytest.raises(TypeError):
            row["price"] = -1.0


def test_a_reloaded_dense_region_serves_read_only_rows(bluenile_db, tmp_path):
    """A reranker over a reloaded, verified dense-region cache serves the
    region's rows equal to the catalog's, and read-only."""
    query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
    ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
    depth = bluenile_db.system_k + 5
    path = str(tmp_path / "dense.sqlite")
    first = DenseRegionCache(bluenile_db.schema, path=path)
    QueryReranker(bluenile_db, dense_cache=first).rerank(query, ranking, Algorithm.RERANK).top(depth)
    assert first.regions()
    first.close()
    second = DenseRegionCache(bluenile_db.schema, path=path)
    try:
        reranker = QueryReranker(bluenile_db, dense_cache=second)
        reranker.verify_dense_cache()
        stream = reranker.rerank(query, ranking, Algorithm.RERANK)
        served = stream.top(depth)
    finally:
        second.close()
    assert stream.statistics.dense_index_hits >= 1
    key = bluenile_db.key_column
    catalog = {row[key]: row for row in bluenile_db.all_matches(query)}
    assert_read_only_copies(served, [catalog[row[key]] for row in served])


def test_a_decoded_wire_answer_holds_read_only_rows(bluenile_db):
    query = SearchQuery.build(ranges={"price": (500.0, 4000.0)})
    original = bluenile_db.search(query)
    payload = wire.encode_result(original, bluenile_db.key_column)
    decoded = wire.decode_result(payload, query)
    assert decoded.outcome is original.outcome
    assert_read_only_copies(decoded.rows, original.rows)
