"""Shard-scoped invalidation: a delta on one shard retires that shard's
cached state, siblings survive.

A catalog change the federation routed to shard *i* must, once its delta
reaches :meth:`QueryReranker.apply_delta`, retire

* what shard *i*'s result-cache namespace holds that a touched version
  matches (the facade's scatter-path entries), and
* what the state merged from *all* shards holds that a touched version
  reaches — the federated-namespace cache entries, the dense regions whose
  box holds it, and the source's rerank feeds whose prefix it ranks into —

while sibling shards' cache entries keep serving and their change logs do
not move.  Each case runs over a rank-partitioned and a price-partitioned
federation of two shards.
"""

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import SingleAttributeRanking
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import CARAT_BOUNDS, DEPTH_BOUNDS
from repro.webdb.build import build_source
from repro.webdb.cache import QueryResultCache
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
NAME = "fedinv"
EVERYTHING = SearchQuery.everything()
BY_CARAT = SingleAttributeRanking("carat", ascending=False)


def make_reranker(catalog, schema, by="rank"):
    # Facade and reranker share one cache, fixed when the source is built.
    cache = QueryResultCache()
    federation = build_source(
        catalog,
        schema,
        RANKING,
        DatabaseConfig(system_k=10, shards=2, shard_by=by),
        name=NAME,
        result_cache=cache,
    )
    return QueryReranker(federation, config=RerankConfig(), result_cache=cache)


@pytest.fixture(params=["rank", "price"])
def reranker(request, diamond_catalog, diamond_schema_fixture) -> QueryReranker:
    return make_reranker(diamond_catalog, diamond_schema_fixture, by=request.param)


def shard_namespaces(reranker):
    return [shard["name"] for shard in reranker.federation.describe()["shards"]]


def sequences(reranker):
    cache = reranker.result_cache
    return {ns: cache.changes(ns).sequence for ns in [NAME, *shard_namespaces(reranker)]}


def shard_row(reranker, index):
    """A tuple shard ``index`` holds, as a plain row."""
    return dict(reranker.federation.shards[index].all_matches(EVERYTHING)[0])


def reshaped(row):
    """``row`` with another depth: the price it is partitioned and ranked by
    stays, so the upsert stays on the shard that holds the tuple."""
    low, high = DEPTH_BOUNDS
    return {**row, "depth": low if row["depth"] != low else high}


def change(reranker: QueryReranker, rows):
    """Upsert ``rows`` on the site — the federation routes each to the shard
    that owns it — and hand the reranker the delta."""
    return reranker.apply_delta(reranker.federation.apply_delta(upserts=rows))


def populate(reranker: QueryReranker) -> None:
    """Serve one request so cache namespaces, feed, and indexes hold state."""
    stream = reranker.rerank(EVERYTHING, BY_CARAT, algorithm=Algorithm.RERANK)
    stream.next_page(5)
    stream.close()


def test_an_unsharded_delta_carries_no_shard_parts(diamond_catalog, diamond_schema_fixture):
    cache = QueryResultCache()
    source = build_source(
        diamond_catalog,
        diamond_schema_fixture,
        RANKING,
        DatabaseConfig(system_k=10),
        name="solo",
        result_cache=cache,
    )
    reranker = QueryReranker(source, result_cache=cache)
    database = source.database
    row = dict(database.all_matches(EVERYTHING)[0])
    delta = reranker.apply_delta(database.apply_delta(upserts=[reshaped(row)]))["delta"]
    assert delta.shard_deltas == ()
    assert delta.keys == {row["id"]}
    # The one namespace of an unsharded source logged it.
    assert cache.changes("solo").sequence == 1


class TestShardScopedDelta:
    @pytest.mark.parametrize("shard", [0, 1])
    def test_one_shard_retires_sibling_survives(self, reranker, shard):
        populate(reranker)
        namespaces = shard_namespaces(reranker)
        sibling = namespaces[1 - shard]
        before = sequences(reranker)

        summary = change(reranker, [reshaped(shard_row(reranker, shard))])
        assert [index for index, _ in summary["delta"].shard_deltas] == [shard]
        assert summary["cache_entries_retired"] > 0

        # The changed shard's log and the federated namespace's log moved;
        # the sibling's log did not — and therefore its entries survive.
        after = sequences(reranker)
        assert after[namespaces[shard]] == before[namespaces[shard]] + 1
        assert after[NAME] == before[NAME] + 1
        assert after[sibling] == before[sibling]

    def test_sibling_cache_entries_keep_serving(self, reranker):
        federation = reranker.federation
        federation.search(EVERYTHING)  # populates both shard namespaces
        baseline = federation.shard_queries_issued()
        change(reranker, [reshaped(shard_row(reranker, 0))])
        federation.search(EVERYTHING)
        # Only shard 0 re-queried; shard 1 answered from its namespace.
        assert federation.shard_queries_issued() == baseline + 1

    @pytest.mark.parametrize("shard", [0, 1])
    def test_any_shard_retires_the_dense_regions_it_reaches(self, reranker, shard):
        row = shard_row(reranker, shard)
        low, high = reranker.federation.schema.domain_bounds("price")
        price = row["price"]
        everything = reranker.federation.all_matches(EVERYTHING)
        inside = [r for r in everything if price - 1.0 <= r["price"] <= price + 1.0]
        index = reranker.dense_index
        index.add_interval("price", price - 1.0, price + 1.0, inside)
        # A region on the other side of the domain, clear of the row.
        far = (low, price - 2.0) if price - low > high - price else (price + 2.0, high)
        index.add_interval(
            "price", *far, [r for r in everything if far[0] <= r["price"] <= far[1]]
        )
        assert index.region_count() == 2

        summary = change(reranker, [reshaped(row)])
        # The index merges rows from all shards: whichever shard the change
        # landed on, the region holding the tuple retires and the other
        # region keeps answering.
        assert summary["regions_retired"] == 1
        assert index.region_count() == 1
        near = RangePredicate("price", price - 0.5, price + 0.5)
        assert index.lookup_interval("price", near) is None
        assert index.lookup_interval("price", RangePredicate("price", *far)) is not None

    def test_a_delta_on_every_shard_moves_every_log(self, reranker):
        populate(reranker)
        before = sequences(reranker)
        rows = [reshaped(shard_row(reranker, index)) for index in (0, 1)]
        summary = change(reranker, rows)
        assert sorted(index for index, _ in summary["delta"].shard_deltas) == [0, 1]
        assert summary["cache_entries_retired"] > 0
        after = sequences(reranker)
        assert all(after[ns] == before[ns] + 1 for ns in before)

    @pytest.mark.parametrize("shard", [0, 1])
    def test_a_delta_ranking_into_the_prefix_retires_the_feed(self, reranker, shard):
        leader = reranker.rerank(EVERYTHING, BY_CARAT, algorithm=Algorithm.RERANK)
        leader.next_page(5)
        follower = reranker.rerank(EVERYTHING, BY_CARAT, algorithm=Algorithm.RERANK)
        follower.next_page(5)
        assert follower.statistics.snapshot()["feed_hits"] > 0

        # The new version carries the largest carat the domain allows, so it
        # ranks first: the feed's verified prefix no longer holds.
        row = shard_row(reranker, shard)
        summary = change(reranker, [{**row, "carat": CARAT_BOUNDS[1]}])
        assert summary["feeds_retired"] == 1
        # The feed was retired: the next session must re-lead (no feed hit)
        # and serves the changed tuple first.
        fresh = reranker.rerank(EVERYTHING, BY_CARAT, algorithm=Algorithm.RERANK)
        page = fresh.next_page(5)
        assert fresh.statistics.snapshot()["feed_hits"] == 0
        assert page[0]["id"] == row["id"] and page[0]["carat"] == CARAT_BOUNDS[1]
        for stream in (leader, follower, fresh):
            stream.close()
        reranker.close()

    def test_closing_the_reranker_moves_no_log(self, reranker):
        populate(reranker)
        entries = len(reranker.result_cache)
        before = sequences(reranker)
        reranker.close()
        assert sequences(reranker) == before
        assert len(reranker.result_cache) == entries > 0
