"""A federated query every target shard has a stored part for is a cache
answer: the engine's probe reads the parts, ``FederatedInterface.merge_parts``
merges them, and the query costs no budget and is not a scatter.  The parts
live in the one entry the engine stores per federated query: its answer's
shard pages."""

from dataclasses import replace

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig, generate_diamond_catalog
from repro.webdb.build import build_source
from repro.webdb.cache import FetchStatus, Parts, QueryResultCache
from repro.webdb.counters import QueryBudget
from repro.webdb.interface import Outcome
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
K = 10


def make_federation(catalog, schema):
    return build_source(
        catalog, schema, RANKING,
        DatabaseConfig(system_k=K, shards=4, shard_by="rank"),
        name="probed",
    )


@pytest.fixture()
def window(diamond_catalog):
    """A price window over 25 tuples: the merged page overflows, yet no
    rank shard holds more than ``K`` of them — each shard's answer covers
    the window, so every sub-query of it needs no round trip."""
    prices = sorted(float(price) for price in diamond_catalog.column("price"))
    return SearchQuery.build(ranges={"price": (prices[100], prices[124])})


def sub_queries(window):
    price = window.range_on("price")
    middle = (price.lower + price.upper) / 2
    return [
        SearchQuery.build(ranges={"price": (price.lower, middle)}),
        SearchQuery.build(ranges={"price": (middle, price.upper)}),
    ]


def md_ranking(schema):
    return LinearRankingFunction(
        {"price": 1.0, "carat": -0.5},
        normalizer=MinMaxNormalizer.from_schema(schema, ["price", "carat"]),
    )


def test_budget_equals_scatters_that_reached_a_shard(
    diamond_catalog, diamond_schema_fixture, window
):
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    assert len(federation.all_matches(window)) > K
    assert all(len(shard.all_matches(window)) <= K for shard in federation.shards)
    reranker = QueryReranker(federation, config=RerankConfig(), result_cache=cache)
    budget = QueryBudget()
    ranking = md_ranking(diamond_schema_fixture)
    try:
        lead = reranker.rerank(window, ranking, Algorithm.RERANK, budget=budget)
        lead.top(8)
        paid = budget.used
        assert paid > 0
        assert paid == federation.describe()["scatter_queries"]
        for sub_query in sub_queries(window):
            rerun = reranker.rerank(sub_query, ranking, Algorithm.RERANK, budget=budget)
            assert rerun.top(5)
            assert rerun.statistics.external_queries == 0
    finally:
        reranker.close()
    described = federation.describe()
    assert budget.used == described["scatter_queries"] == paid
    assert all(shard["cache_hits"] > 0 for shard in described["shards"])


def test_zero_trip_group_under_an_exhausted_budget(
    diamond_catalog, diamond_schema_fixture, window
):
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    QueryEngine(federation, result_cache=cache).search(window)
    scatters = federation.queries_issued()
    engine = QueryEngine(federation, budget=QueryBudget(0), result_cache=cache)
    results = engine.search_group(sub_queries(window))
    assert [result.rows for result in results] == [
        tuple(federation.all_matches(query)[:K]) for query in sub_queries(window)
    ]
    assert engine.budget.used == 0
    assert engine.statistics.external_queries == 0
    assert engine.statistics.contained_answers == 2
    assert federation.queries_issued() == scatters


def test_every_exact_part_is_a_hit_and_a_missing_part_is_a_miss(
    diamond_catalog, diamond_schema_fixture, window
):
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    assert cache.probe(federation.name, window, K) is None
    QueryEngine(federation, result_cache=cache).search(window)
    stored, _ = cache.probe(federation.name, window, K)
    # The entry kept as its four pages alone: every part is exact, so the
    # engine's probe merges them into a hit and no shard is asked.
    only_parts = QueryResultCache()
    only_parts.store(federation.name, window, K, replace(stored, degraded=True))
    parts = only_parts.probe(federation.name, window, K)
    assert isinstance(parts, Parts) and parts.exact == frozenset(parts.pages) == set(range(4))
    engine = QueryEngine(federation, result_cache=only_parts)
    result = engine.search(window)
    assert engine.statistics.result_cache_hits == 1 and engine.budget.used == 0
    assert result.outcome is Outcome.OVERFLOW and result.elapsed_seconds == 0.0
    assert list(result.rows) == federation.all_matches(window)[:K]
    assert only_parts.probe(federation.name, window, K)[1] is FetchStatus.HIT
    assert federation.queries_issued() == 1
    # A delta reached one shard: the entry's answer and that shard's page
    # retire, and only that shard needs a round trip again.
    row = dict(federation.all_matches(window)[0])
    delta = federation.apply_delta(upserts=[dict(row, carat=row["carat"] + 0.01)])
    ((touched, _),) = delta.shard_deltas
    assert cache.invalidate_delta(federation.name, delta) == 1
    parts = cache.probe(federation.name, window, K)
    assert isinstance(parts, Parts)
    assert sorted(parts.pages) == sorted(set(range(4)) - {touched}) == sorted(parts.exact)
    assert federation.merge_parts(window, parts.pages) is None
    asked = [shard.queries_issued() for shard in federation.shards]
    QueryEngine(federation, result_cache=cache).search(window)
    assert [shard.queries_issued() - before for shard, before in zip(federation.shards, asked)] == [
        int(index == touched) for index in range(4)
    ]


class _Interleaved(QueryResultCache):
    """Runs ``interleave`` after the probe's part read, just before the
    merged answer is stored under the facade namespace."""

    interleave = staticmethod(lambda: None)

    def store_merged(self, *args, **kwargs):
        self.interleave()
        return super().store_merged(*args, **kwargs)


def test_a_shard_change_before_the_facade_store_drops_it(
    diamond_catalog, diamond_schema_fixture, window
):
    cache = _Interleaved()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    QueryEngine(federation, result_cache=cache).search(window)
    sub_query = sub_queries(window)[0]
    row = dict(federation.all_matches(sub_query)[0])

    def mutate():
        delta = federation.apply_delta(upserts=[dict(row, carat=row["carat"] + 0.01)])
        cache.invalidate_delta(federation.name, delta)

    cache.interleave = mutate
    engine = QueryEngine(federation, result_cache=cache)
    engine.search(sub_query)
    assert engine.statistics.contained_answers == 1
    cache.interleave = lambda: None
    assert cache.key_for(federation.name, sub_query, K) not in cache._entries
    parts = cache.probe(federation.name, sub_query, K)
    assert isinstance(parts, Parts) and len(parts.pages) == 3
    assert federation.merge_parts(sub_query, parts.pages) is None


def test_an_unchanged_federation_stores_the_merged_answer(
    diamond_catalog, diamond_schema_fixture, window
):
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    engine = QueryEngine(federation, result_cache=cache)
    engine.search(window)
    sub_query = sub_queries(window)[0]
    answer = engine.search(sub_query)
    assert engine.statistics.contained_answers == 1
    stored, status = cache.probe(federation.name, sub_query, K)
    assert status is FetchStatus.HIT and stored.rows == answer.rows
    # The caller shares the stored rows, and they refuse writes.
    assert all(a is b for a, b in zip(answer.rows, stored.rows))
    with pytest.raises(TypeError):
        answer.rows[0]["price"] = -1.0
    assert cache.probe(federation.name, sub_query, K)[0].rows == stored.rows


def test_a_private_result_cache_reuses_every_shard_part(diamond_schema_fixture):
    """The reranker's own result cache is the only one a federation's parts
    are read from.  16 requests on a 4-shard federation (4 price windows ×
    1D / 2D × BINARY / RERANK, 10 rows deep) pay 113 scatters and 407 shard
    queries — what they paid when the federation was handed the reranker's
    cache, and 69 shard queries fewer than when it was not."""
    catalog = generate_diamond_catalog(DiamondCatalogConfig(size=2000, seed=7))
    federation = make_federation(catalog, diamond_schema_fixture)
    reranker = QueryReranker(federation)
    rankings = [SingleAttributeRanking("carat", ascending=False), md_ranking(diamond_schema_fixture)]
    for low, high in [(300.0, 1500.0), (800.0, 2500.0), (1500.0, 4000.0), (300.0, 6000.0)]:
        query = SearchQuery.build(ranges={"price": (low, high)})
        for ranking in rankings:
            for algorithm in (Algorithm.BINARY, Algorithm.RERANK):
                assert len(reranker.rerank(query, ranking, algorithm).top(10)) == 10
    assert (federation.queries_issued(), federation.shard_queries_issued()) == (113, 407)
