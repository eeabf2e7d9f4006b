"""Tests for partial-answer serving: degraded scatters and the
degraded-result cache exclusion."""

from dataclasses import replace

import pytest

from repro.config import DatabaseConfig
from repro.core.reranker import QueryReranker
from repro.dataset.diamonds import DEPTH_BOUNDS
from repro.exceptions import SourceUnavailableError
from repro.webdb.build import build_source
from repro.webdb.cache import FetchStatus, QueryResultCache
from repro.webdb.faults import FaultPlan
from repro.webdb.federation import FederatedInterface
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from repro.webdb.resilience import CircuitBreaker

from tests.conftest import set_guard_policy


RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
QUERY = SearchQuery.build(ranges={"price": (300.0, 6000.0)})


def make_federation(catalog, schema, shards=3, fault_plan=None, clock=None, **kwargs):
    """``kwargs`` are build_source's keyword arguments (result_cache).  A
    ``clock`` for the shard breakers' recovery is taken by the federation
    itself, so with one the built shards and their fault plans are
    federated again under it."""
    federation = build_source(
        catalog,
        schema,
        RANKING,
        DatabaseConfig(system_k=10, shards=shards, fault_plan=fault_plan),
        name="partial",
        **kwargs,
    )
    if clock is None:
        return federation
    return FederatedInterface(
        federation.shards,
        RANKING,
        name="partial",
        fault_plans=[
            None if injector is None else injector.plan
            for injector in federation.fault_injectors()
        ],
        clock=clock,
        **kwargs,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def kill_shard(federation, index):
    """Put shard ``index`` into a permanent fail-stop outage."""
    injector = federation.fault_injectors()[index]
    assert injector is not None
    injector.set_plan(replace(injector.plan, fail_from=0))


@pytest.fixture()
def faulted_federation(diamond_catalog, diamond_schema_fixture):
    """3-shard federation carrying (noop-rate) injectors on every shard so
    tests can schedule outages per shard."""
    return make_federation(
        diamond_catalog,
        diamond_schema_fixture,
        fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
    )


class TestDegradedScatter:
    def test_dead_shard_degrades_instead_of_failing(self, faulted_federation):
        kill_shard(faulted_federation, 1)
        result = faulted_federation.search(QUERY)
        assert result.degraded
        assert result.missing_shards == ("partial#1",)
        # Degraded answers never claim coverage.
        assert result.outcome is Outcome.OVERFLOW

    def test_degraded_merge_keeps_live_shards_in_merged_order(
        self, faulted_federation, diamond_schema_fixture
    ):
        kill_shard(faulted_federation, 1)
        degraded = faulted_federation.search(QUERY)
        live = [faulted_federation.shards[index].search(QUERY) for index in (0, 2)]
        expected = [row for result in live for row in result.rows]
        expected.sort(key=RANKING.sort_key(diamond_schema_fixture.key))
        assert [row["id"] for row in degraded.rows] == [
            row["id"] for row in expected[:10]
        ]

    def test_all_shards_dead_raises(self, faulted_federation):
        for index in range(faulted_federation.shard_count):
            kill_shard(faulted_federation, index)
        with pytest.raises(SourceUnavailableError):
            faulted_federation.search(QUERY)

    def test_heal_restores_byte_identical_answers(
        self, diamond_catalog, diamond_schema_fixture
    ):
        clock = FakeClock()
        faulted_federation = make_federation(
            diamond_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
            clock=clock,
        )
        reference = make_federation(diamond_catalog, diamond_schema_fixture)
        queries = [
            SearchQuery.build(ranges={"price": (300.0, 1500.0 + 100.0 * i)})
            for i in range(8)
        ]
        kill_shard(faulted_federation, 2)
        degraded_pages = [faulted_federation.search(q) for q in queries]
        assert all(page.degraded for page in degraded_pages)
        # Heal: deactivate every injector, let the dead shard's breaker
        # reach its probe window, then replay the same trace.
        for injector in faulted_federation.fault_injectors():
            injector.deactivate()
        clock.now += CircuitBreaker().recovery_seconds + 1.0
        for query in queries:
            healed = faulted_federation.search(query)
            clean = reference.search(query)
            assert not healed.degraded
            assert healed.outcome == clean.outcome
            assert [row["id"] for row in healed.rows] == [
                row["id"] for row in clean.rows
            ]

    def test_resilient_scatter_retries_transients_clean(
        self, diamond_catalog, diamond_schema_fixture, monkeypatch
    ):
        set_guard_policy(monkeypatch, max_attempts=8, failure_threshold=100)
        federation = make_federation(
            diamond_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=47, transient_rate=0.25),
        )
        for i in range(20):
            query = SearchQuery.build(ranges={"price": (300.0, 900.0 + 50.0 * i)})
            result = federation.search(query)
            assert not result.degraded
        snapshot = federation.resilience_snapshot()
        assert snapshot["retries"] > 0
        assert snapshot["degraded_scatters"] == 0


@pytest.mark.parametrize("seed", [31, 47, 2018])
def test_chaos_run_is_a_pure_function_of_the_plan_seed(
    diamond_catalog, diamond_schema_fixture, seed, monkeypatch
):
    """Rebuilding the federation from the same ``FaultPlan`` and replaying
    the same scatter trace lands on the same fault draws: per-shard schedule
    positions, fault counts and the per-query degradation profile."""
    plan = FaultPlan(seed=seed, transient_rate=0.35)
    trace = [
        SearchQuery.build(ranges={"price": (300.0, 900.0 + 150.0 * i)}) for i in range(20)
    ]
    set_guard_policy(monkeypatch, max_attempts=2, failure_threshold=100)

    def run():
        federation = make_federation(
            diamond_catalog,
            diamond_schema_fixture,
            fault_plan=plan,
            clock=FakeClock(),
        )
        answers = [federation.search(query) for query in trace]
        return (
            [(answer.degraded, tuple(answer.missing_shards)) for answer in answers],
            [
                (injector.schedule_index, injector.fault_counts())
                for injector in federation.fault_injectors()
            ],
        )

    first, second = run(), run()
    assert first == second
    profile, shards = first
    assert any(degraded for degraded, _ in profile), "the plan never bit"
    assert all(counts.get("transient", 0) > 0 for _, counts in shards)


class TestRetiredEntriesNeverServed:
    @pytest.mark.parametrize("shard", [0, 1, 2])
    def test_a_dead_shard_is_missing_though_it_answered_before_a_delta(
        self, diamond_catalog, diamond_schema_fixture, shard
    ):
        """A shard whose cached answer a delta retired and which then dies
        is named in ``missing_shards``: the live shards answer from their
        cache, and no version of the changed tuple is served."""
        cache = QueryResultCache()
        federation = make_federation(
            diamond_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
            result_cache=cache,
        )
        reranker = QueryReranker(federation, result_cache=cache)
        owner = federation.shards[shard]
        before = federation.search(QUERY)
        touched = next(row for row in before.rows if owner.has_key(row["id"]))
        low, high = DEPTH_BOUNDS
        changed = {**touched, "depth": low if touched["depth"] != low else high}
        assert reranker.apply_delta(upserts=[changed])["cache_entries_retired"] == 1
        kill_shard(federation, shard)
        live_queries = [
            federation.shards[index].queries_issued()
            for index in range(3)
            if index != shard
        ]

        after = federation.search(QUERY)
        assert after.degraded and after.outcome is Outcome.OVERFLOW
        assert after.missing_shards == (f"partial#{shard}",)
        served = [row["id"] for row in after.rows]
        assert touched["id"] not in served
        # Every row the live shards placed in the whole answer's top k is
        # in the top k of their union, answered from their cached entries.
        assert {
            row["id"] for row in before.rows if not owner.has_key(row["id"])
        } <= set(served)
        assert [
            federation.shards[index].queries_issued()
            for index in range(3)
            if index != shard
        ] == live_queries


class TestDegradedNeverCached:
    def test_fetch_does_not_store_degraded_results(self, bluenile_db):
        cache = QueryResultCache()
        clean = bluenile_db.search(QUERY)
        degraded = SearchResult(
            query=QUERY,
            rows=clean.rows,
            outcome=Outcome.OVERFLOW,
            system_k=clean.system_k,
            degraded=True,
            missing_shards=("partial#1",),
        )
        result, status = cache.fetch("ns", QUERY, 10, lambda: degraded)
        assert status is FetchStatus.MISS
        assert result.degraded
        # Nothing was memoized: the next fetch pays the round trip again.
        _, second_status = cache.fetch("ns", QUERY, 10, lambda: clean)
        assert second_status is FetchStatus.MISS
        # The clean answer, in contrast, was stored.
        assert cache.probe("ns", QUERY, 10) is not None
