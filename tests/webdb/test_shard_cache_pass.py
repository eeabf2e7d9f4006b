"""The federated query path does each cache job once.

A federated query takes one result-cache entry, under the federation's
namespace, and that entry keeps the shard pages its answer was merged from.
The engine's probe is the one read of the namespace: one walk of its
covering index finds an answer or the query's shard parts, and the parts
are either merged into an answer or handed to the scatter, which asks only
the shards no part answers.  Nothing coalesces below the facade, and a
crawl's groups store their answers like any other group.
"""

import dataclasses
import random
import sys
import threading
from collections import Counter

import pytest

from repro.config import DatabaseConfig
from repro.core.parallel import QueryEngine
from repro.core.reranker import QueryReranker
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.webdb.boxindex import BoxIndex
from repro.webdb.build import build_source
from repro.webdb.cache import FetchStatus, Parts, QueryResultCache
from repro.webdb.counters import QueryBudget
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import SearchQuery, freeze_row
from repro.webdb.ranking import FeaturedScoreRanking

RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
QUERY = SearchQuery.build(ranges={"price": (300.0, 6000.0)})


def make_federation(catalog, schema):
    return build_source(
        catalog, schema, RANKING,
        DatabaseConfig(system_k=10, shards=4, shard_by="rank"),
        name="walked",
    )


def count_walks(monkeypatch):
    """Count ``BoxIndex.covering`` walks, by index object."""
    walks = Counter()
    covering = BoxIndex.covering

    def counted(index, box):
        walks[id(index)] += 1
        return covering(index, box)

    monkeypatch.setattr(BoxIndex, "covering", counted)
    return walks


def walked_scopes(cache, walks):
    """``walks`` by the namespace of the covering index walked."""
    scope_of = {id(index): scope[0] for scope, index in cache._covering.items()}
    return Counter({scope_of[index]: count for index, count in walks.items()})


def test_the_shared_copy_keeps_every_field_but_the_latency():
    """The zero-cost answer a coalesced waiter receives is built without
    the dataclass constructor, so a field added to ``SearchResult`` must
    survive it: every field holds a non-default value here."""
    first, second = freeze_row({"id": "a", "price": 1.0}), freeze_row({"id": "b", "price": 2.0})
    values = {
        "query": QUERY,
        "rows": (first,),
        "outcome": Outcome.OVERFLOW,
        "system_k": 1,
        "elapsed_seconds": 0.25,
        "degraded": True,
        "missing_shards": ("walked#1",),
        "complete_rows": (first, second),
        "shard_pages": ((0, SearchResult(QUERY, (first,), Outcome.VALID, 10)),),
    }
    fields = dataclasses.fields(SearchResult)
    missing = {field.name for field in fields} - set(values)
    assert not missing, f"give the new SearchResult field(s) {missing} a value here"
    for field in fields:
        assert values[field.name] != field.default, field.name
    result = SearchResult(**values)
    shared = QueryResultCache._at_no_cost(result)
    assert shared is not result
    assert shared.elapsed_seconds == 0.0
    for field in fields:
        if field.name != "elapsed_seconds":
            assert getattr(shared, field.name) is getattr(result, field.name), field.name
    assert QueryResultCache._at_no_cost(shared) is shared


def test_a_cold_federated_miss_walks_the_covering_index_once_per_read(
    diamond_catalog, diamond_schema_fixture, monkeypatch
):
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    walks = count_walks(monkeypatch)
    flights = []

    class Registry(dict):
        def __setitem__(self, key, flight):
            flights.append(key[0])
            super().__setitem__(key, flight)

    cache._inflight = Registry()
    (page,) = QueryEngine(federation, result_cache=cache).search_group([QUERY])

    # The engine's probe is the one read of the federation's namespace.
    assert walked_scopes(cache, walks) == {"walked": 1}
    assert flights == ["walked"]
    assert federation.queries_issued() == 1
    assert federation.shard_queries_issued() == 4
    assert page.rows == federation.search(QUERY).rows
    # One entry, holding the four shard pages its answer was merged from.
    assert len(cache) == 1
    stored, _ = cache.probe("walked", QUERY, federation.system_k)
    assert [index for index, _ in stored.shard_pages] == [0, 1, 2, 3]
    for index, shard_page in stored.shard_pages:
        assert shard_page.keys() == federation.shards[index].search(QUERY).keys()


def test_an_all_parts_probe_hit_walks_the_covering_index_once(
    diamond_catalog, diamond_schema_fixture, monkeypatch
):
    """A sub-query of an overflowing answer whose every shard page covered
    it is answered from those pages: one walk finds them, and the merged
    answer is a containment answer, asking no shard."""
    prices = sorted(float(price) for price in diamond_catalog.column("price"))
    window = SearchQuery.build(ranges={"price": (prices[100], prices[124])})
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    engine = QueryEngine(federation, result_cache=cache)
    assert engine.search(window).is_overflow
    walks = count_walks(monkeypatch)
    sub_query = SearchQuery.build(ranges={"price": (prices[100], prices[110])})
    page = engine.search(sub_query)
    assert walked_scopes(cache, walks) == {"walked": 1}
    assert engine.statistics.contained_answers == 1
    assert federation.queries_issued() == 1
    assert page.keys() == [row["id"] for row in federation.all_matches(sub_query)[:10]]


def test_a_crawl_over_a_federation_stores_one_answer_per_query(
    diamond_catalog, diamond_schema_fixture
):
    """Each crawl query over a federation takes one entry, under the
    federation's namespace, that answers the query and keeps its four shard
    pages; a second crawl of the region is answered from those entries and
    asks no shard."""
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    engine = QueryEngine(federation, result_cache=cache)
    region = SearchQuery.build(ranges={"price": (300.0, 1500.0)})
    rows, crawl = HiddenDatabaseCrawler(engine).crawl(region)
    assert sorted(row["id"] for row in rows) == sorted(
        row["id"] for row in federation.all_matches(region)
    )
    assert crawl.queries_issued > 1
    assert engine.statistics.external_queries == len(cache) == crawl.queries_issued
    k = federation.system_k
    for stored in list(cache._entries.values()):
        served, _ = cache.probe("walked", stored.query, k)
        assert served.keys() == [row["id"] for row in federation.all_matches(stored.query)[:k]]
        assert [index for index, _ in served.shard_pages] == [0, 1, 2, 3]

    shard_queries = federation.shard_queries_issued()
    again, _ = HiddenDatabaseCrawler(engine).crawl(region)
    assert [row["id"] for row in again] == [row["id"] for row in rows]
    assert federation.shard_queries_issued() == shard_queries
    assert engine.statistics.external_queries == crawl.queries_issued


def test_identical_cold_queries_from_two_engines_make_one_scatter(
    diamond_catalog, diamond_schema_fixture, monkeypatch
):
    """The second engine's query arrives while the first one's shard round
    trip is held open: it coalesces on the facade's key, is refunded, and
    the shards see one query each."""
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    engines = [
        QueryEngine(federation, result_cache=cache, budget=QueryBudget()) for _ in range(2)
    ]
    in_shard, joined = threading.Event(), threading.Event()

    class Flights(dict):
        def get(self, key, default=None):
            flight = super().get(key, default)
            if flight is not None:
                joined.set()  # the second caller found the first one's flight
            return flight

    cache._inflight = Flights()
    shard = federation.shards[0]
    search_many = shard.search_many

    def held(queries):
        in_shard.set()
        assert joined.wait(timeout=5.0)
        return search_many(queries)

    monkeypatch.setattr(shard, "search_many", held)
    pages = {}
    leader = threading.Thread(target=lambda: pages.update(lead=engines[0].search(QUERY)))
    leader.start()
    assert in_shard.wait(timeout=5.0)
    pages["follow"] = engines[1].search(QUERY)
    leader.join(timeout=5.0)
    assert not leader.is_alive()

    assert federation.queries_issued() == 1
    assert federation.shard_queries_issued() == 4
    assert pages["follow"].rows == pages["lead"].rows
    assert pages["follow"].elapsed_seconds == 0.0
    lead, follow = (engine.statistics.snapshot() for engine in engines)
    assert (lead["external_queries"], follow["external_queries"]) == (1, 0)
    assert follow["coalesced_queries"] == 1
    assert [engine.budget.used for engine in engines] == [1, 0]


def test_scatters_racing_deltas_leave_only_current_entries_and_parts(
    diamond_catalog, diamond_schema_fixture
):
    """Four engines scatter over one cache while deltas reprice tuples:
    once they stop, every answer the cache serves and every kept shard page
    equals what the changed federation answers now."""
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    reranker = QueryReranker(federation, result_cache=cache)
    queries = [
        SearchQuery.build(ranges={"price": (300.0 + 40.0 * i, 1500.0 + 200.0 * i)})
        for i in range(12)
    ]
    repriced = federation.all_matches(QUERY)[:30]
    stop, errors = threading.Event(), []

    def scatter(seed):
        engine, rng = QueryEngine(federation, result_cache=cache), random.Random(seed)
        try:
            while not stop.is_set():
                engine.search_group(rng.sample(queries, 3))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=scatter, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for row in repriced:
            change = federation.apply_delta(upserts=[{**row, "price": row["price"] + 37.0}])
            reranker.apply_delta(change)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    k = federation.system_k
    for (namespace, _, _), stored in list(cache._entries.items()):
        query = stored.query
        served = cache.probe(namespace, query, k)
        if isinstance(served, tuple):
            assert served[0].keys() == [row["id"] for row in federation.all_matches(query)[:k]]
        for index, page in stored.shard_pages:
            assert page.keys() == federation.shards[index].search(query).keys()


def test_a_delta_keeps_the_reached_entrys_parts_in_its_lru_slot(
    diamond_catalog, diamond_schema_fixture
):
    """The parts a delta leaves of an entry stay where the entry was in the
    LRU: at capacity they are evicted before the answers stored after it."""
    cache = QueryResultCache(max_entries=3)
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    reranker = QueryReranker(federation, result_cache=cache)
    engine = QueryEngine(federation, result_cache=cache)
    first, second, third, fourth = (
        SearchQuery.build(ranges={"price": (low, low + 700.0)})
        for low in (300.0, 2000.0, 4000.0, 6000.0)
    )
    for query in (first, second, third):
        engine.search(query)
    row = federation.all_matches(first)[0]
    change = federation.apply_delta(upserts=[{**row, "price": row["price"] + 1.0}])
    summary = reranker.apply_delta(change)
    assert summary["cache_entries_retired"] == 1
    k = federation.system_k
    assert len(cache) == 3
    assert next(iter(cache._entries)) == cache.key_for("walked", first, k)

    engine.search(fourth)
    assert cache.probe("walked", first, k) is None
    assert all(
        cache.probe("walked", query, k)[1] is FetchStatus.HIT for query in (second, third, fourth)
    )


@pytest.mark.parametrize("racer", ["settle_many", "probe"])
def test_a_delta_during_a_scatter_drops_its_answer_and_parts(
    diamond_catalog, diamond_schema_fixture, monkeypatch, racer
):
    """A delta that can match a scatter's query drops the merged answer and
    the pages it brought, whether it lands while the shards answer or after
    the engine's probe read the parts the scatter reuses: nothing stale is
    stored."""
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture)
    reranker = QueryReranker(federation, result_cache=cache)
    k = federation.system_k

    def reprice(row):
        reranker.apply_delta(federation.apply_delta(upserts=[{**row, "price": row["price"] + 1.0}]))

    if racer == "probe":
        # Shard 0's page retires; shard 1 then changes after the probe has
        # read its part, and the scatter asks shard 0 alone.
        QueryEngine(federation, result_cache=cache).search(QUERY)
        first, second = (
            next(r for r in federation.all_matches(QUERY) if federation.shards[i].has_key(r["id"]))
            for i in (0, 1)
        )
        reprice(first)
        row, target = second, cache
    else:
        row, target = federation.all_matches(QUERY)[0], federation
    read = getattr(target, racer)

    def racing(*args):
        answered = read(*args)
        reprice(row)
        return answered

    monkeypatch.setattr(target, racer, racing)
    asked = federation.shard_queries_issued()
    QueryEngine(federation, result_cache=cache).search_group([QUERY])
    monkeypatch.undo()
    if racer == "settle_many":
        assert len(cache) == 0
        return
    assert federation.shard_queries_issued() == asked + 1
    parts = cache.probe("walked", QUERY, k)
    assert isinstance(parts, Parts) and sorted(parts.pages) == [2, 3]
    for index, page in parts.pages.items():
        assert page.rows == federation.shards[index].search(QUERY).rows
