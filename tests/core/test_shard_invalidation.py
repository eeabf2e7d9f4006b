"""Shard-scoped invalidation: one shard's cached state retires, siblings
survive.

Invalidating shard *i* through :meth:`QueryReranker.invalidate` must retire

* shard *i*'s result-cache namespace (the facade's scatter-path entries), and
* the state derived from *all* shards — the federated-namespace cache
  entries, the dense index, and the source's rerank feeds —

while sibling shards' cache entries keep serving.
"""

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import SingleAttributeRanking
from repro.core.reranker import Algorithm, QueryReranker
from repro.webdb.build import build_source
from repro.webdb.cache import QueryResultCache
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)


def make_reranker(catalog, schema, config=None):
    config = config or RerankConfig()
    # Facade and reranker share one cache, fixed when the source is built.
    cache = QueryResultCache()
    federation = build_source(
        catalog,
        schema,
        RANKING,
        DatabaseConfig(system_k=10, shards=2),
        name="fedinv",
        result_cache=cache,
    )
    return QueryReranker(federation, config=config, result_cache=cache)


@pytest.fixture()
def reranker(diamond_catalog, diamond_schema_fixture) -> QueryReranker:
    return make_reranker(diamond_catalog, diamond_schema_fixture)


def populate(reranker: QueryReranker) -> None:
    """Serve one request so cache namespaces, feed, and indexes hold state."""
    ranking = SingleAttributeRanking("carat", ascending=False)
    stream = reranker.rerank(
        SearchQuery.everything(), ranking, algorithm=Algorithm.RERANK
    )
    stream.next_page(5)
    stream.close()


class TestShardScopedInvalidation:
    def test_shard_invalidation_requires_federation(self, bluenile_db):
        unsharded = QueryReranker(bluenile_db)
        with pytest.raises(ValueError):
            unsharded.invalidate(shard=0)
        # Unscoped invalidation still works over an unsharded source.
        outcome = unsharded.invalidate()
        assert outcome == {"cache_entries": 0, "feeds_retired": 0}

    def test_one_shard_retires_sibling_survives(self, reranker):
        populate(reranker)
        cache = reranker.result_cache
        federation = reranker.federation
        assert cache is not None and federation is not None
        shard0_ns, shard1_ns = [shard["name"] for shard in federation.describe()["shards"]]
        federated_ns = "fedinv"
        sequences_before = {
            ns: cache.changes(ns).sequence
            for ns in (shard0_ns, shard1_ns, federated_ns)
        }

        outcome = reranker.invalidate(shard=0)
        assert outcome["cache_entries"] > 0

        # Shard 0's log and the federated namespace's log moved; the
        # sibling's log did not — and therefore its entries survive.
        assert cache.changes(shard0_ns).sequence != sequences_before[shard0_ns]
        assert cache.changes(federated_ns).sequence != sequences_before[federated_ns]
        assert cache.changes(shard1_ns).sequence == sequences_before[shard1_ns]

    def test_sibling_cache_entries_keep_serving(self, reranker):
        federation = reranker.federation
        assert federation is not None
        query = SearchQuery.everything()
        federation.search(query)  # populates both shard namespaces
        baseline = federation.shard_queries_issued()
        reranker.invalidate(shard=0)
        federation.search(query)
        # Only shard 0 re-queried; shard 1 answered from its namespace.
        assert federation.shard_queries_issued() == baseline + 1

    def test_any_shard_rebuilds_dense_index(self, reranker):
        populate(reranker)
        before = reranker.dense_index
        reranker.invalidate(shard=1)
        # The dense index merges rows from all shards, so any shard's change
        # rebuilds it.
        assert reranker.dense_index is not before

    def test_invalidate_all_shards(self, reranker):
        populate(reranker)
        cache = reranker.result_cache
        namespaces = [shard["name"] for shard in reranker.federation.describe()["shards"]]
        before = {ns: cache.changes(ns).sequence for ns in namespaces}
        outcome = reranker.invalidate()
        assert outcome["cache_entries"] > 0
        assert all(cache.changes(ns).sequence != before[ns] for ns in namespaces)

    def test_feeds_retire(self, diamond_catalog, diamond_schema_fixture):
        reranker = make_reranker(diamond_catalog, diamond_schema_fixture)
        ranking = SingleAttributeRanking("carat", ascending=False)
        query = SearchQuery.everything()

        leader = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
        leader.next_page(5)
        follower = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
        follower.next_page(5)
        assert follower.statistics.snapshot()["feed_hits"] > 0

        outcome = reranker.invalidate(shard=0)
        assert outcome["feeds_retired"] > 0
        # The feed was retired: the next session must re-lead (no feed hit).
        fresh = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
        fresh.next_page(5)
        assert fresh.statistics.snapshot()["feed_hits"] == 0
        for stream in (leader, follower, fresh):
            stream.close()
        reranker.close()
