"""Every tuple is built once, by the catalog, and shared from there on.

``ColumnarCatalog.materialize`` / ``materialize_many`` are wrapped to record
the rows they build.  An MD lead and a 1D lead then run with the result
cache, the dense-region index and the rerank feed on, over an unsharded
source and over a 2-shard federation.  Every row the run left behind — the
pages emitted, the sessions' seen logs, the cache entries (with the complete
match sets federated merges keep, and the rows of every crawled dense region)
and the feed prefixes — must be one of those objects (``is``, not ``==``): no
layer copies a row it passes on.
"""

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.webdb.build import build_source
from repro.webdb.cache import QueryResultCache
from repro.webdb.indexes import ColumnarCatalog
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

PAGE = 10

#: The 1D lead's attribute per shard count.  Over two shards the merge proves
#: the MD lead's regions and a ``depth`` lead's without a crawl, so the
#: sharded lead ranks by ``length_width_ratio``: its first value group (70
#: round stones at 1.0) overflows every shard, and is crawled.
ONE_DIM_ATTRIBUTE = {1: "depth", 2: "length_width_ratio"}


@pytest.fixture()
def built(monkeypatch):
    """The rows the catalog materializes, kept alive so ids stay unique."""
    rows = []
    materialize = ColumnarCatalog.materialize
    materialize_many = ColumnarCatalog.materialize_many

    def recording(catalog, rank):
        row = materialize(catalog, rank)
        rows.append(row)
        return row

    def recording_many(catalog, ranks):
        batch = materialize_many(catalog, ranks)
        rows.extend(batch)
        return batch

    monkeypatch.setattr(ColumnarCatalog, "materialize", recording)
    monkeypatch.setattr(ColumnarCatalog, "materialize_many", recording_many)
    return rows


def held_rows(reranker, streams):
    """Every row the run left in the places that hold rows, by place."""
    places = {"emitted": [], "seen log": [], "cache": [], "feed": []}
    for stream in streams:
        places["emitted"] += stream.returned_so_far
        places["seen log"] += stream.session.seen_since(0)
        feed = stream.feed
        places["feed"] += [feed.row_at(position)[0] for position in range(feed.depth)]
        places["seen log"] += feed._producer.session.seen_since(0)
    for result in reranker.result_cache._entries.values():
        places["cache"] += [*result.rows, *(result.complete_rows or ())]
    return places


@pytest.mark.parametrize("shards", [1, 2])
def test_every_held_row_is_the_one_the_catalog_built(
    built, shards, diamond_catalog, diamond_schema_fixture
):
    cache = QueryResultCache()
    source = build_source(
        diamond_catalog,
        diamond_schema_fixture,
        FeaturedScoreRanking("price", boost_weight=2500.0),
        DatabaseConfig(system_k=10, shards=shards),
        name="identity",
    )
    reranker = QueryReranker(source, config=RerankConfig(), result_cache=cache)
    md = LinearRankingFunction(
        {"price": 1.0, "carat": -0.5},
        normalizer=MinMaxNormalizer.from_schema(diamond_schema_fixture, ["price", "carat"]),
    )
    try:
        md_lead = reranker.rerank(SearchQuery.build(ranges={"carat": (0.5, 3.0)}), md)
        for _ in range(3):
            assert md_lead.next_page(PAGE)
        one_dim = reranker.rerank(
            SearchQuery.everything(),
            SingleAttributeRanking(ONE_DIM_ATTRIBUTE[shards], ascending=True),
            Algorithm.RERANK,
        )
        assert one_dim.next_page(PAGE)
        places = held_rows(reranker, [md_lead, one_dim])
    finally:
        reranker.close()

    assert all(places.values()), {place: len(rows) for place, rows in places.items()}
    built_ids = {id(row) for row in built}
    copies = {
        place: sum(id(row) not in built_ids for row in rows)
        for place, rows in places.items()
    }
    assert copies == dict.fromkeys(places, 0)
