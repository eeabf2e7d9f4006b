"""A federated query every target shard has a stored part for is a cache
answer: it is resolved at the engine's probe, costs no budget and is not a
scatter (``FederatedInterface.probe``).  The parts live in the one entry the
engine stores per federated query: its answer's shard pages."""

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import LinearRankingFunction
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm, QueryReranker
from repro.webdb.build import build_source
from repro.webdb.cache import FetchStatus, QueryResultCache
from repro.webdb.counters import QueryBudget
from repro.webdb.interface import Outcome
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
K = 10


def make_federation(catalog, schema, result_cache):
    return build_source(
        catalog, schema, RANKING,
        DatabaseConfig(system_k=K, shards=4, shard_by="rank"),
        name="probed", result_cache=result_cache,
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
    federation = make_federation(diamond_catalog, diamond_schema_fixture, cache)
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
    federation = make_federation(diamond_catalog, diamond_schema_fixture, cache)
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
    federation = make_federation(diamond_catalog, diamond_schema_fixture, cache)
    assert federation.probe(window) is None
    QueryEngine(federation, result_cache=cache).search(window)
    result, status = federation.probe(window)
    assert status is FetchStatus.HIT
    assert result.outcome is Outcome.OVERFLOW and result.elapsed_seconds == 0.0
    assert list(result.rows) == federation.all_matches(window)[:K]
    # A delta reached one shard: the entry's answer and that shard's page
    # retire, and only that shard needs a round trip again.
    row = dict(federation.all_matches(window)[0])
    delta = federation.apply_delta(upserts=[dict(row, carat=row["carat"] + 0.01)])
    ((touched, _),) = delta.shard_deltas
    assert cache.invalidate_delta(federation.name, delta) == 1
    assert cache.probe(federation.name, window, K) is None
    _, parts, derived = cache.shard_parts(federation.name, window, K, range(4))
    assert sorted(parts) == sorted(set(range(4)) - {touched}) and not derived
    assert federation.probe(window) is None
    assert federation.queries_issued() == 1


class _Interleaved(QueryResultCache):
    """Runs ``interleave`` after the part read, just before the merged
    answer is stored under the facade namespace."""

    interleave = staticmethod(lambda: None)

    def store_claimed(self, *args, **kwargs):
        self.interleave()
        return super().store_claimed(*args, **kwargs)


def test_a_shard_change_before_the_facade_store_drops_it(
    diamond_catalog, diamond_schema_fixture, window
):
    cache = _Interleaved()
    federation = make_federation(diamond_catalog, diamond_schema_fixture, cache)
    QueryEngine(federation, result_cache=cache).search(window)
    sub_query = sub_queries(window)[0]
    row = dict(federation.all_matches(sub_query)[0])

    def mutate():
        delta = federation.apply_delta(upserts=[dict(row, carat=row["carat"] + 0.01)])
        cache.invalidate_delta(federation.name, delta)

    cache.interleave = mutate
    probed = federation.probe(sub_query)
    assert probed is not None and probed[1] is FetchStatus.CONTAINED
    cache.interleave = lambda: None
    assert cache.probe(federation.name, sub_query, K) is None
    assert federation.probe(sub_query) is None


def test_an_unchanged_federation_stores_the_merged_answer(
    diamond_catalog, diamond_schema_fixture, window
):
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture, cache)
    QueryEngine(federation, result_cache=cache).search(window)
    sub_query = sub_queries(window)[0]
    answer, _ = federation.probe(sub_query)
    stored, status = cache.probe(federation.name, sub_query, K)
    assert status is FetchStatus.HIT and stored.rows == answer.rows
    # The caller shares the stored rows, and they refuse writes.
    assert all(a is b for a, b in zip(answer.rows, stored.rows))
    with pytest.raises(TypeError):
        answer.rows[0]["price"] = -1.0
    assert cache.probe(federation.name, sub_query, K)[0].rows == stored.rows
