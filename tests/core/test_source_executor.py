"""The per-source query executor: one bounded pool, owned by the
:class:`QueryReranker` and lent to every engine it builds."""

import threading

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import LinearRankingFunction
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.core.stats import RerankStatistics
from repro.webdb.build import build_source
from repro.webdb.counters import QueryBudget
from repro.webdb.faults import FaultPlan
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import AttributeOrderRanking
from tests.conftest import query_threads

WORKERS = 3
#: Perturbing yet never failing: a slow draw only inflates the accounted
#: latency.
PLAN = FaultPlan(seed=5, slow_rate=0.2)


def _source(diamond_catalog, schema, config):
    return build_source(
        diamond_catalog, schema, AttributeOrderRanking("price"), config, name="pool"
    )


@pytest.fixture()
def sharded_faulty(diamond_catalog, diamond_schema_fixture):
    # A really sleeping source cannot batch, so every group fans out over the
    # pool (a perturbing fault plan alone no longer forces that).
    return _source(
        diamond_catalog,
        diamond_schema_fixture,
        DatabaseConfig(
            system_k=10,
            shards=4,
            fault_plan=PLAN,
            latency_seconds=0.00001,
            latency_jitter=0.0,
            latency_sleep=True,
        ),
    )


def _lead(reranker, index):
    """Lead request number ``index`` (each is distinct) two pages deep;
    returns the row ids served."""
    ranking = LinearRankingFunction(
        {"price": 1.0, "carat": -0.5},
        normalizer=MinMaxNormalizer.from_schema(
            reranker.interface.schema, ["price", "carat"]
        ),
    )
    query = SearchQuery.build(ranges={"price": (400.0 + 25 * index, 9000.0)})
    stream = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
    ids = [row["id"] for _ in range(2) for row in stream.next_page(5)]
    stream.close()
    return ids


def test_threads_stay_within_parallel_workers_and_end_with_close(sharded_faulty):
    before = threading.enumerate()
    reranker = QueryReranker(
        sharded_faulty, config=RerankConfig(parallel_workers=WORKERS)
    )
    for index in range(24):  # 24 feeds, 24 producer engines, one pool
        _lead(reranker, index)
        assert 0 < len(query_threads(before)) <= WORKERS
    assert reranker.feed_store.snapshot()["created"] == 24
    reranker.close()
    assert query_threads(before) == []
    reranker.close()  # a second close has nothing left to do
    assert query_threads(before) == []


def test_reranker_serves_identical_pages_after_close(sharded_faulty):
    # No result cache: the requests after close() pay their round trips again.
    config = RerankConfig(parallel_workers=WORKERS, enable_result_cache=False)
    before = threading.enumerate()
    reranker = QueryReranker(sharded_faulty, config=config)
    expected = [_lead(reranker, index) for index in range(3)]
    assert all(expected)
    reranker.close()
    assert query_threads(before) == []
    # New requests rebuild their feeds and borrow a fresh executor.
    assert [_lead(reranker, index) for index in range(3)] == expected
    assert reranker.feed_store.snapshot()["created"] == 6
    assert 0 < len(query_threads(before)) <= WORKERS
    reranker.close()
    assert query_threads(before) == []


def test_one_worker_never_deadlocks_concurrent_leaders(
    diamond_catalog, diamond_schema_fixture
):
    """Four callers fan the same uncached group out over a one-thread pool:
    every task either owns its query's flight (and is running) or waits on
    one that is — nothing waits on work queued behind it."""
    # A really sleeping source issues per query and keeps the first round
    # trip in flight while the other callers probe, miss and queue up.
    source = _source(
        diamond_catalog,
        diamond_schema_fixture,
        DatabaseConfig(
            system_k=10, latency_seconds=0.02, latency_jitter=0.0, latency_sleep=True
        ),
    )
    assert not source.supports_batched_search
    reranker = QueryReranker(source, config=RerankConfig(parallel_workers=1))
    group = [
        SearchQuery.build(ranges={"price": (300.0, 3000.0 + 500 * i)}) for i in range(3)
    ]
    engines = [
        reranker._build_engine(RerankStatistics(), QueryBudget(10)) for _ in range(4)
    ]
    barrier = threading.Barrier(len(engines))
    answers = {}

    def lead(index):
        barrier.wait(5.0)
        answers[index] = [r.rows for r in engines[index].search_group(group)]

    callers = [threading.Thread(target=lead, args=(i,)) for i in range(len(engines))]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=20.0)
    assert not any(caller.is_alive() for caller in callers), "deadlocked"
    reranker.close()

    assert all(answers[index] == answers[0] for index in range(len(engines)))
    # Coalesced: one round trip per distinct query, whoever asked; every
    # other charge was handed back.
    assert source.queries_issued() == len(group)
    assert sum(engine.budget.used for engine in engines) == len(group)
    paid = sum(engine.statistics.external_queries for engine in engines)
    free = sum(
        engine.statistics.result_cache_hits + engine.statistics.coalesced_queries
        for engine in engines
    )
    assert (paid, free) == (len(group), len(group) * (len(engines) - 1))
