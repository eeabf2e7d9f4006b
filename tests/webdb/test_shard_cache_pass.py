"""The federated query path does each cache job once.

The engine probes the facade namespace (the group's one containment lookup),
the federation probe tries the first shard, and a scatter resolves each
shard's batch in one pass: one probe per query, one round trip for the
misses, one store per answered miss.  Nothing coalesces below the facade,
because identical federated queries already coalesce on the facade's key.
"""

import dataclasses
import threading
from collections import Counter

from repro.config import DatabaseConfig
from repro.core.parallel import QueryEngine
from repro.webdb.boxindex import BoxIndex
from repro.webdb.build import build_source
from repro.webdb.cache import QueryResultCache
from repro.webdb.counters import QueryBudget
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import SearchQuery, freeze_row
from repro.webdb.ranking import FeaturedScoreRanking

RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
QUERY = SearchQuery.build(ranges={"price": (300.0, 6000.0)})


def make_federation(catalog, schema, cache):
    return build_source(
        catalog, schema, RANKING,
        DatabaseConfig(system_k=10, shards=4, shard_by="rank"),
        name="walked", result_cache=cache,
    )


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


def test_a_cold_federated_miss_walks_each_covering_index_once(
    diamond_catalog, diamond_schema_fixture, monkeypatch
):
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture, cache)
    walks = Counter()
    covering = BoxIndex.covering

    def counted(index, box):
        walks[id(index)] += 1
        return covering(index, box)

    monkeypatch.setattr(BoxIndex, "covering", counted)
    flights = []

    class Registry(dict):
        def __setitem__(self, key, flight):
            flights.append(key[0])
            super().__setitem__(key, flight)

    cache._inflight = Registry()
    (page,) = QueryEngine(federation, result_cache=cache).search_group([QUERY])

    scope_of = {id(index): scope[0] for scope, index in cache._covering.items()}
    walked = Counter({scope_of[index]: count for index, count in walks.items()})
    # The facade once (the engine's probe); each shard once in the scatter,
    # and the first shard once more in the federation's probe.
    assert walked == {
        "walked": 1, "walked#0": 2, "walked#1": 1, "walked#2": 1, "walked#3": 1
    }
    assert flights == ["walked"]
    assert federation.queries_issued() == 1
    assert federation.shard_queries_issued() == 4
    assert page.rows == federation.search(QUERY).rows


def test_identical_cold_queries_from_two_engines_make_one_scatter(
    diamond_catalog, diamond_schema_fixture, monkeypatch
):
    """The second engine's query arrives while the first one's shard round
    trip is held open: it coalesces on the facade's key, is refunded, and
    the shards see one query each."""
    cache = QueryResultCache()
    federation = make_federation(diamond_catalog, diamond_schema_fixture, cache)
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
