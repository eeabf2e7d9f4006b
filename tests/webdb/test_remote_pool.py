"""The one query pool: a remote adapter's.

:class:`RemoteTopKInterface` is the only source whose round trips are real,
so it is the only one that holds threads.  It overlaps a query group's GETs
on a bounded ``qr2-query`` pool of its own, which ``QueryReranker.close()``
ends through the source's ``close``.  Every in-process source, sleeping or
not, settles a group on the caller's thread.
"""

import threading

import pytest

from repro.config import DatabaseConfig
from repro.core.functions import LinearRankingFunction
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.core.stats import RerankStatistics
from repro.httpsim.client import HttpClient, UrllibTransport
from repro.httpsim.server import serve_database_over_socket
from repro.webdb.build import build_source
from repro.webdb.counters import QueryBudget
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.faults import FaultPlan
from repro.webdb.federation import FederatedInterface
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import AttributeOrderRanking
from repro.webdb.remote import QUERY_WORKERS, RemoteTopKInterface
from repro.webdb.stack import SourceStack
from tests.conftest import query_threads

#: Perturbing yet never failing: a slow draw only inflates the accounted
#: latency.
PLAN = FaultPlan(seed=5, slow_rate=0.2)


def _source(diamond_catalog, schema, config):
    return build_source(
        diamond_catalog, schema, AttributeOrderRanking("price"), config, name="pool"
    )


@pytest.fixture()
def database(diamond_catalog, diamond_schema_fixture):
    return HiddenWebDatabase(
        diamond_catalog,
        diamond_schema_fixture,
        AttributeOrderRanking("price"),
        system_k=10,
        name="pool",
    )


@pytest.fixture()
def remote(database):
    """The database over a real socket, behind the adapter."""
    handle = serve_database_over_socket(database)
    transport = UrllibTransport(handle.base_url)
    try:
        yield RemoteTopKInterface(HttpClient(transport))
    finally:
        transport.close()
        handle.shutdown()


@pytest.fixture()
def sleeping(diamond_catalog, diamond_schema_fixture):
    """Four really sleeping, perturbed shards."""
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


def _ranking(reranker):
    return LinearRankingFunction(
        {"price": 1.0, "carat": -0.5},
        normalizer=MinMaxNormalizer.from_schema(
            reranker.interface.schema, ["price", "carat"]
        ),
    )


def _lead(reranker, index):
    """Lead request number ``index`` (each is distinct) two pages deep;
    returns the row ids served."""
    query = SearchQuery.build(ranges={"price": (400.0 + 25 * index, 9000.0)})
    stream = reranker.rerank(query, _ranking(reranker), algorithm=Algorithm.RERANK)
    ids = [row["id"] for _ in range(2) for row in stream.next_page(5)]
    stream.close()
    return ids


def _price_upto(upper):
    return SearchQuery.build(ranges={"price": (300.0, upper)})


def test_a_single_query_runs_on_the_callers_thread(remote, database):
    before = threading.enumerate()
    query = _price_upto(3000.0)
    (settled,) = remote.settle_many([query])
    assert settled.rows == remote.search(query).rows == database.search(query).rows
    assert query_threads(before) == []
    remote.search_many([query, _price_upto(4000.0)])
    assert 0 < len(query_threads(before)) <= QUERY_WORKERS
    remote.close()
    assert query_threads(before) == []


@pytest.mark.parametrize("wrapper", ["stack", "federation"])
def test_closing_a_source_over_the_adapter_ends_its_pool(remote, database, wrapper):
    source = (
        SourceStack(remote)
        if wrapper == "stack"
        else FederatedInterface([remote], AttributeOrderRanking("price"), name="fed")
    )
    group = [_price_upto(3000.0 + 500 * i) for i in range(4)]
    before = threading.enumerate()
    assert [r.rows for r in source.search_many(group)] == [
        r.rows for r in database.search_many(group)
    ]
    assert 0 < len(query_threads(before)) <= QUERY_WORKERS
    source.close()
    assert query_threads(before) == []


def test_threads_stay_within_the_bound_and_end_with_close(remote):
    before = threading.enumerate()
    reranker = QueryReranker(remote)
    for index in range(24):  # 24 feeds, 24 producer engines, one pool
        _lead(reranker, index)
        assert 0 < len(query_threads(before)) <= QUERY_WORKERS
    assert reranker.feed_store.snapshot()["created"] == 24
    reranker.close()
    assert query_threads(before) == []
    reranker.close()  # a second close has nothing left to do
    assert query_threads(before) == []


def test_the_adapter_serves_the_databases_pages_before_and_after_close(remote, database):
    expected = [_lead(QueryReranker(database), index) for index in range(6)]
    assert all(expected)
    before = threading.enumerate()
    reranker = QueryReranker(remote)
    assert [_lead(reranker, index) for index in range(3)] == expected[:3]
    reranker.close()
    assert query_threads(before) == []
    # New requests build their own feeds and pay their round trips on a
    # fresh pool.
    assert [_lead(reranker, index) for index in range(3, 6)] == expected[3:]
    assert reranker.feed_store.snapshot()["created"] == 6
    assert 0 < len(query_threads(before)) <= QUERY_WORKERS
    reranker.close()
    assert query_threads(before) == []


@pytest.mark.parametrize("kind", ["remote", "sleeping"])
def test_a_stream_opened_before_close_advances_after_it(kind, request, database):
    source = request.getfixturevalue(kind)
    query = SearchQuery.build(ranges={"price": (400.0, 9000.0)})
    reference = QueryReranker(database)
    expected = reference.rerank(query, _ranking(reference), algorithm=Algorithm.RERANK)
    reranker = QueryReranker(source)
    stream = reranker.rerank(query, _ranking(reranker), algorithm=Algorithm.RERANK)
    first = stream.next_page(5)
    reranker.close()
    paid = stream.statistics.external_queries
    second = stream.next_page(5)
    assert stream.statistics.external_queries > paid
    reranker.close()
    assert [row["id"] for row in first + second] == [
        row["id"] for row in expected.next_page(10)
    ]


def test_in_process_sources_start_no_query_thread(sleeping):
    before = threading.enumerate()
    reranker = QueryReranker(sleeping)
    for index in range(6):
        assert _lead(reranker, index)
    assert query_threads(before) == []
    reranker.close()


def test_concurrent_leaders_coalesce_onto_one_round_trip_each(
    diamond_catalog, diamond_schema_fixture
):
    """Four callers issue the same uncached group at once, with no pool: one
    round trip per distinct query, whoever asked, and every other charge is
    handed back."""
    # A really sleeping source keeps the first round trip in flight while
    # the other callers probe, miss and coalesce onto it.
    source = _source(
        diamond_catalog,
        diamond_schema_fixture,
        DatabaseConfig(
            system_k=10, latency_seconds=0.02, latency_jitter=0.0, latency_sleep=True
        ),
    )
    before = threading.enumerate()
    reranker = QueryReranker(source)
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
    assert not any(caller.is_alive() for caller in callers), "a caller hung"
    assert query_threads(before) == []
    reranker.close()

    assert all(answers[index] == answers[0] for index in range(len(engines)))
    assert source.queries_issued() == len(group)
    assert sum(engine.budget.used for engine in engines) == len(group)
    paid = sum(engine.statistics.external_queries for engine in engines)
    free = sum(
        engine.statistics.result_cache_hits + engine.statistics.coalesced_queries
        for engine in engines
    )
    assert (paid, free) == (len(group), len(group) * (len(engines) - 1))
