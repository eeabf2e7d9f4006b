"""A query group is one call per layer whatever the fault plan: slots are
drawn up front, the unperturbed queries go out as one batch, only the
faulted ones are retried, and each query is settled where it failed."""

import sys
import threading

import pytest

from repro.config import DatabaseConfig
from repro.core.functions import LinearRankingFunction
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm, QueryReranker
from repro.exceptions import SourceUnavailableError
from repro.webdb.build import build_source
from repro.webdb.cache import QueryResultCache
from repro.webdb.counters import QueryBudget
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.delta import CatalogDelta
from repro.webdb.faults import FaultKind, FaultPlan
from repro.webdb.federation import FederatedInterface
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from repro.webdb.stack import SourceStack
from tests.conftest import query_threads

RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
#: Slots 0..3: only slot 0 is TRANSIENT; slots 4 and 5 are TRANSIENT too.
#: So in a group of four the first query draws three transients in a row
#: (its own slot, then both retries) and exhausts the default three attempts.
GROUP_OF_FOUR_PLAN = FaultPlan(seed=4, transient_rate=0.5)
#: The same for a group of three: only slot 1 of 0..2, then slots 3 and 4.
GROUP_OF_THREE_PLAN = FaultPlan(seed=0, transient_rate=0.5)


def group(count):
    return [
        SearchQuery.build(ranges={"price": (300.0, 2000.0 + 500.0 * i)})
        for i in range(count)
    ]


@pytest.mark.parametrize(
    "plan, size, doomed",
    [(GROUP_OF_FOUR_PLAN, 4, 0), (GROUP_OF_THREE_PLAN, 3, 1)],
)
def test_the_plans_doom_exactly_one_query(plan, size, doomed):
    kinds = [plan.fault_at(index)[0] for index in range(size + 2)]
    assert [i for i in range(size) if kinds[i] is FaultKind.TRANSIENT] == [doomed]
    assert kinds[size:] == [FaultKind.TRANSIENT] * 2


class TestUnshardedStack:
    def test_a_failed_query_leaves_its_siblings_issued_cached_and_paid(self, bluenile_db):
        stack = SourceStack(bluenile_db, fault_plan=GROUP_OF_FOUR_PLAN)
        cache = QueryResultCache()
        engine = QueryEngine(stack, result_cache=cache, budget=QueryBudget(10))
        queries = group(4)
        with pytest.raises(SourceUnavailableError):
            engine.search_group(queries)
        assert engine.budget.used == 3
        assert stack.statistics.queries == 3
        assert cache.probe(stack.name, queries[0], stack.system_k) is None
        for sibling in queries[1:]:
            assert cache.probe(stack.name, sibling, stack.system_k) is not None

    def test_a_failed_query_is_not_answered_by_an_entry_a_delta_retired(self, bluenile_db):
        stack = SourceStack(bluenile_db, fault_plan=GROUP_OF_FOUR_PLAN)
        cache = QueryResultCache()
        queries = group(4)
        for query in queries:
            cache.fetch(stack.name, query, stack.system_k, lambda q=query: bluenile_db.search(q))
        # A tuple every query of the group matches changed: all four
        # answers retire, and nothing keeps a copy of them.
        touched = bluenile_db.all_matches(queries[0])[0]
        delta = CatalogDelta.from_rows(stack.name, bluenile_db.schema.key, [touched])
        assert cache.invalidate_delta(stack.name, delta) == 4
        engine = QueryEngine(stack, result_cache=cache, budget=QueryBudget(10))
        with pytest.raises(SourceUnavailableError):
            engine.search_group(queries)
        assert engine.budget.used == stack.statistics.queries == 3
        assert cache.probe(stack.name, queries[0], stack.system_k) is None
        for sibling in queries[1:]:
            assert cache.probe(stack.name, sibling, stack.system_k) is not None

    def test_one_database_batch_plus_one_guard_call_per_faulted_query(
        self, bluenile_db, monkeypatch
    ):
        batches = []
        original = HiddenWebDatabase.search_many

        def spying(self, queries):
            batches.append(len(list(queries)))
            return original(self, queries)

        monkeypatch.setattr(HiddenWebDatabase, "search_many", spying)
        stack = SourceStack(bluenile_db, fault_plan=GROUP_OF_FOUR_PLAN)
        settled = stack.settle_many(group(4))
        assert isinstance(settled[0], SourceUnavailableError)
        assert batches == [3]
        # One admission for the batch, one guard call for the faulted query.
        assert stack.guard.describe()["calls"] == 2
        # Four slots up front, two more for the faulted query's retries.
        assert stack.injector.schedule_index == 6
        snapshot = stack.resilience_statistics.snapshot()
        assert (snapshot["attempts"], snapshot["retries"]) == (3 + 3, 2)


class TestFederation:
    def test_a_shard_failing_one_query_degrades_only_that_query(
        self, diamond_catalog, diamond_schema_fixture
    ):
        shards = build_source(
            diamond_catalog,
            diamond_schema_fixture,
            RANKING,
            DatabaseConfig(system_k=10, shards=3),
            name="settle",
        ).shards
        cache = QueryResultCache()
        federation = FederatedInterface(
            shards,
            RANKING,
            name="settle",
            result_cache=cache,
            fault_plans=[None, GROUP_OF_THREE_PLAN, None],
        )
        engine = QueryEngine(federation, result_cache=cache, budget=QueryBudget(10))
        queries = group(3)
        results = engine.search_group(queries)
        assert results[1].degraded and results[1].missing_shards == ("settle#1",)
        assert [results[0].degraded, results[2].degraded] == [False, False]
        assert engine.budget.used == 3
        assert cache.probe("settle", queries[1], 10) is None
        for sibling in (queries[0], queries[2]):
            assert cache.probe("settle", sibling, 10) is not None
        # Each shard saw the group as one batch.
        assert federation.describe()["scatter_queries"] == 3


def test_concurrent_batches_fail_per_key_and_never_compute_a_key_twice_at_once(bluenile_db):
    """Eight threads fetch overlapping batches through one cache while the
    source fails the first attempts of some keys in their own positions:
    every answer is the database's, no key is ever computed by two callers
    at once, and no flight is left behind."""
    cache = QueryResultCache()
    queries = [
        SearchQuery.build(ranges={"price": (300.0 + 37.0 * i, 9000.0 - 41.0 * i)})
        for i in range(12)
    ]
    reference = {query: bluenile_db.search(query).rows for query in queries}
    lock = threading.Lock()
    failures = {query: 3 for query in queries[::3]}
    computing, overlaps, errors, unavailable = set(), [], [], []

    def compute_many(batch):
        with lock:
            overlaps.extend(query for query in batch if query in computing)
            computing.update(batch)
        settled = []
        for query in batch:
            with lock:
                doomed = failures.get(query, 0) > 0
                if doomed:
                    failures[query] -= 1
            settled.append(
                SourceUnavailableError("down") if doomed else bluenile_db.search(query)
            )
        with lock:
            computing.difference_update(batch)
        return settled

    def client(seed):
        try:
            for round_ in range(20):
                batch = queries[(seed + round_) % 12:] + queries[: (seed + round_) % 12]
                for query, (answer, _) in zip(batch[::2], cache.fetch_many(
                    "stress", batch[::2], bluenile_db.system_k, compute_many
                )):
                    if isinstance(answer, Exception):
                        assert isinstance(answer, SourceUnavailableError)
                        unavailable.append(query)
                    else:
                        assert answer.rows == reference[query]
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=client, args=(seed,), daemon=True) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and overlaps == []
    assert not cache._inflight
    # Every doomed key failed its three attempts, and only doomed keys did.
    assert set(failures.values()) == {0}
    assert unavailable and set(unavailable) <= set(failures)
    for query in queries:
        assert cache.probe("stress", query, bluenile_db.system_k)[0].rows == reference[query]


def _chaos_run(diamond_catalog, schema):
    """Twelve MD leads, two pages each, over a fresh perturbed 4-shard
    federation; everything the fault schedule decides, recorded."""
    federation = build_source(
        diamond_catalog,
        schema,
        RANKING,
        DatabaseConfig(
            system_k=10,
            shards=4,
            fault_plan=FaultPlan(seed=11, transient_rate=0.2, slow_rate=0.05),
        ),
        name="chaos",
    )
    before = threading.enumerate()
    reranker = QueryReranker(federation)
    ranking = LinearRankingFunction(
        {"price": 1.0, "carat": -0.5},
        normalizer=MinMaxNormalizer.from_schema(schema, ["price", "carat"]),
    )
    pages = []
    for index in range(12):
        query = SearchQuery.build(ranges={"price": (400.0 + 40 * index, 9000.0)})
        stream = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
        pages.append([[row["id"] for row in stream.next_page(5)] for _ in range(2)])
        stream.close()
    threads = query_threads(before)
    reranker.close()
    resilience = federation.resilience_snapshot()
    return {
        "shards": [
            (injector.schedule_index, injector.fault_counts())
            for injector in federation.fault_injectors()
        ],
        "guards": {
            name: resilience[name] for name in ("attempts", "retries", "failed_attempts")
        },
        "external_queries": federation.shard_queries_issued(),
        "scatters": federation.queries_issued(),
        "pages": pages,
        "threads": len(threads),
    }


def test_a_seeded_chaos_run_replays_exactly(diamond_catalog, diamond_schema_fixture):
    """The group's slots are drawn on the caller's thread in batch order, so
    two fresh runs of one seeded plan agree on every fault draw — and a lead
    over a perturbed in-process federation starts no query thread.  A tiny
    switch interval makes threads racing for slots (as pooled per-query
    issuance did) interleave differently from run to run."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        first = _chaos_run(diamond_catalog, diamond_schema_fixture)
        second = _chaos_run(diamond_catalog, diamond_schema_fixture)
    finally:
        sys.setswitchinterval(interval)
    assert first == second
    assert first["threads"] == 0
    assert first["guards"]["retries"] > 0, "the plan never bit"
