"""Tests for partial-answer serving: degraded scatters and the
degraded-result cache exclusion."""

from dataclasses import replace

import pytest

from repro.config import DatabaseConfig
from repro.core import dense_index
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm, QueryReranker
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.dataset.diamonds import DEPTH_BOUNDS, DiamondCatalogConfig, generate_diamond_catalog
from repro.exceptions import SourceUnavailableError
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.counters import QueryBudget
from repro.webdb.build import build_source
from repro.webdb.cache import FetchStatus, Parts, QueryResultCache
from repro.webdb.faults import FaultPlan
from repro.webdb.federation import FederatedInterface
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from repro.webdb.resilience import CircuitBreaker

from tests.conftest import set_guard_policy


RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)
QUERY = SearchQuery.build(ranges={"price": (300.0, 6000.0)})


def make_federation(catalog, schema, shards=3, fault_plan=None, clock=None):
    """A ``clock`` for the shard breakers' recovery is taken by the
    federation itself, so with one the built shards and their fault plans
    are federated again under it."""
    federation = build_source(
        catalog,
        schema,
        RANKING,
        DatabaseConfig(system_k=10, shards=shards, fault_plan=fault_plan),
        name="partial",
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


def record_missing(federation):
    """Spy on ``federation``'s scatters: the returned set collects the
    ``missing_shards`` of every degraded answer they settle."""
    missing = set()
    settle = federation.settle_many

    def recorded(queries, parts=None):
        answered = settle(queries, parts)
        for answer in answered:
            if isinstance(answer, SearchResult) and answer.degraded:
                missing.update(answer.missing_shards)
        return answered

    federation.settle_many = recorded
    return missing


def ranked(ranking, rows):
    """The ids of ``rows`` in ``ranking``'s order, ties by id."""
    return [row["id"] for row in sorted(rows, key=lambda row: (ranking.score(row), str(row["id"])))]


def rankings(schema):
    """The 1D ``price`` and ``table``, 2D and 3D rankings of the dead-shard cases."""

    def linear(weights):
        return LinearRankingFunction(
            weights, normalizer=MinMaxNormalizer.from_schema(schema, list(weights))
        )

    return {
        "1d-price": SingleAttributeRanking("price", ascending=True),
        "1d-table": SingleAttributeRanking("table", ascending=True),
        "2d": linear({"price": 1.0, "carat": -0.5}),
        "3d": linear({"price": 1.0, "carat": -0.5, "depth": 0.3}),
    }


@pytest.fixture(scope="module")
def large_catalog():
    """2 000 stones: enough that a 1D ``price`` descent over ``price`` in
    [300, 1500] crawls a dense region."""
    return generate_diamond_catalog(DiamondCatalogConfig(size=2000, seed=7))


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
        # Classified over the live shards: their pages overflow this wide query.
        assert result.outcome is Outcome.OVERFLOW
        assert result.complete_rows is None

    def test_a_degraded_merge_is_classified_over_its_live_shards(self, faulted_federation):
        """A degraded merge covers its query when every live shard's page
        does, and overflows past ``k`` like a clean one, but it never keeps
        ``complete_rows``: the dead shard may hold more matches."""
        kill_shard(faulted_federation, 1)
        k = faulted_federation.system_k
        seen = set()
        for upper in range(320, 2000, 40):
            query = SearchQuery.build(ranges={"price": (300.0, float(upper))})
            result = faulted_federation.search(query)
            live = [faulted_federation.shards[index].search(query) for index in (0, 2)]
            total = sum(len(page.rows) for page in live)
            if any(page.is_overflow for page in live) or total > k:
                expected = Outcome.OVERFLOW
            else:
                expected = Outcome.VALID if total else Outcome.UNDERFLOW
            assert result.degraded and result.outcome is expected
            assert result.complete_rows is None
            seen.add(expected)
        assert Outcome.VALID in seen and Outcome.OVERFLOW in seen

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
        """A shard whose cached page a delta retired and which then dies is
        named in ``missing_shards``: the live shards' parts of the one
        entry answer, and no version of the changed tuple is served."""
        cache = QueryResultCache()
        federation = make_federation(
            diamond_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
        )
        reranker = QueryReranker(federation, result_cache=cache)
        engine = QueryEngine(federation, result_cache=cache)
        owner = federation.shards[shard]
        before = engine.search(QUERY)
        touched = next(row for row in before.rows if owner.has_key(row["id"]))
        low, high = DEPTH_BOUNDS
        changed = {**touched, "depth": low if touched["depth"] != low else high}
        summary = reranker.apply_delta(federation.apply_delta(upserts=[changed]))
        assert summary["cache_entries_retired"] == 1
        kill_shard(federation, shard)
        live_queries = [
            federation.shards[index].queries_issued()
            for index in range(3)
            if index != shard
        ]

        after = engine.search(QUERY)
        assert after.degraded and after.outcome is Outcome.OVERFLOW
        assert after.missing_shards == (f"partial#{shard}",)
        served = [row["id"] for row in after.rows]
        assert touched["id"] not in served
        # Every row the live shards placed in the whole answer's top k is
        # in the top k of their union, answered from their stored parts.
        assert {
            row["id"] for row in before.rows if not owner.has_key(row["id"])
        } <= set(served)
        assert [
            federation.shards[index].queries_issued()
            for index in range(3)
            if index != shard
        ] == live_queries


class TestHealThenReread:
    def test_a_degraded_group_keeps_only_parts_and_the_reread_asks_the_healed_shard(
        self, diamond_catalog, diamond_schema_fixture
    ):
        """A group served while shard 1 is down is never stored as an
        answer: only the live shards' pages are kept, as parts.  After the
        heal the same group asks shard 1 alone and answers as a fault-free
        federation and the brute-force oracle do."""
        clock = FakeClock()
        cache = QueryResultCache()
        federation = make_federation(
            diamond_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
            clock=clock,
        )
        reference = make_federation(diamond_catalog, diamond_schema_fixture)
        engine = QueryEngine(federation, result_cache=cache)
        queries = [
            SearchQuery.build(ranges={"price": (300.0, 1500.0 + 100.0 * i)})
            for i in range(8)
        ]
        kill_shard(federation, 1)
        assert all(page.degraded for page in engine.search_group(queries))
        k = federation.system_k
        for query in queries:
            parts = cache.probe("partial", query, k)
            assert isinstance(parts, Parts) and sorted(parts.pages) == [0, 2]
            assert federation.merge_parts(query, parts.pages) is None
            for index, page in parts.pages.items():
                assert page.keys() == federation.shards[index].search(query).keys()

        for injector in federation.fault_injectors():
            injector.deactivate()
        clock.now += CircuitBreaker().recovery_seconds + 1.0
        asked = [shard.queries_issued() for shard in federation.shards]
        healed = engine.search_group(queries)
        assert [
            shard.queries_issued() - before for shard, before in zip(federation.shards, asked)
        ] == [0, len(queries), 0]
        for query, page in zip(queries, healed):
            clean = reference.search(query)
            assert not page.degraded and page.missing_shards == ()
            assert page.outcome is clean.outcome
            assert page.keys() == clean.keys()
            assert page.complete_rows == clean.complete_rows
            assert page.keys() == [row["id"] for row in federation.all_matches(query)[:k]]
        # The healed answers are stored whole: a reread is a plain hit.
        assert all(cache.probe("partial", query, k)[1] is FetchStatus.HIT for query in queries)

    @pytest.mark.parametrize("case", ["1d", "2d", "ta", "1d-price-2000"])
    def test_a_reread_on_the_same_reranker_equals_a_fresh_reranker(
        self, request, diamond_schema_fixture, case
    ):
        """Kill a shard and serve a request on a reranker: it ends with a
        page flagged degraded, whose answers name the dead shard.  Heal, and
        reread on the same reranker: the page equals a freshly built
        reranker's and the brute-force oracle.  The 2 000-stone ``price``
        case crawls a dense region while the shard is dead; the region must
        not outlive the request."""
        catalog = request.getfixturevalue(
            "large_catalog" if case == "1d-price-2000" else "diamond_catalog"
        )
        clock = FakeClock()
        cache = QueryResultCache()
        federation = make_federation(
            catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
            clock=clock,
        )
        reranker = QueryReranker(federation, result_cache=cache)
        query = SearchQuery.build(ranges={"price": (300.0, 1500.0)})
        if case == "1d-price-2000":
            ranking, algorithm = rankings(diamond_schema_fixture)["1d-price"], Algorithm.RERANK
        elif case == "1d":
            ranking, algorithm = SingleAttributeRanking("carat", ascending=False), Algorithm.RERANK
        else:
            ranking = LinearRankingFunction(
                {"price": 1.0, "carat": -0.5},
                normalizer=MinMaxNormalizer.from_schema(diamond_schema_fixture, ["price", "carat"]),
            )
            algorithm = Algorithm.TA if case == "ta" else Algorithm.RERANK
        kill_shard(federation, 1)
        missing = record_missing(federation)
        degraded = reranker.rerank(query, ranking, algorithm, budget=QueryBudget(500))
        assert len(degraded.top(5)) == 5
        assert degraded.statistics.read("degraded_results") > 0
        assert missing == {"partial#1"}

        for injector in federation.fault_injectors():
            injector.deactivate()
        clock.now += CircuitBreaker().recovery_seconds + 1.0
        reread = [row["id"] for row in reranker.rerank(query, ranking, algorithm).top(10)]
        fresh = QueryReranker(make_federation(catalog, diamond_schema_fixture))
        assert reread == [row["id"] for row in fresh.rerank(query, ranking, algorithm).top(10)]
        assert reread == ranked(ranking, federation.all_matches(query))[:10]

    def test_a_feed_led_over_a_dead_shard_is_not_replayed_after_the_heal(
        self, diamond_catalog, diamond_schema_fixture
    ):
        """The rerank feed store outlives a request: a feed led while shard 1
        is down holds a degraded prefix.  After the heal, a new session for
        the same request reads the live oracle, not that prefix."""
        clock = FakeClock()
        federation = make_federation(
            diamond_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
            clock=clock,
        )
        reranker = QueryReranker(federation, result_cache=QueryResultCache())
        query = SearchQuery.build(ranges={"price": (300.0, 1500.0)})
        ranking = SingleAttributeRanking("carat", ascending=False)
        oracle = ranked(ranking, federation.all_matches(query))[:10]
        kill_shard(federation, 1)
        led = reranker.rerank(query, ranking, Algorithm.RERANK)
        degraded = [row["id"] for row in led.top(10)]
        assert led.statistics.read("degraded_results") > 0
        assert led.feed.stale and degraded != oracle
        assert reranker.feed_store.snapshot()["created"] == 1

        for injector in federation.fault_injectors():
            injector.deactivate()
        clock.now += CircuitBreaker().recovery_seconds + 1.0
        reread = reranker.rerank(query, ranking, Algorithm.RERANK)
        assert reread.feed is not led.feed and not reread.feed.stale
        assert [row["id"] for row in reread.top(10)] == oracle
        assert reranker.feed_store.snapshot()["created"] == 2

    def test_a_degraded_crawl_persists_no_region_and_a_reload_reads_the_oracle(
        self, large_catalog, diamond_schema_fixture, tmp_path
    ):
        """The dense-region SQLite cache outlives the process: a region
        crawled while a shard is dead is not stored, and a reranker reloaded
        from the file after the heal reads the oracle's page."""
        path = str(tmp_path / "dense.sqlite")
        clock = FakeClock()
        cache = QueryResultCache()
        federation = make_federation(
            large_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
            clock=clock,
        )
        query = SearchQuery.build(ranges={"price": (300.0, 1500.0)})
        ranking = rankings(diamond_schema_fixture)["1d-price"]
        kill_shard(federation, 1)
        dense = DenseRegionCache(diamond_schema_fixture, path=path)
        served = QueryReranker(federation, dense_cache=dense, result_cache=cache)
        stream = served.rerank(query, ranking, Algorithm.RERANK, budget=QueryBudget(500))
        assert len(stream.top(10)) == 10
        assert stream.statistics.read("degraded_results") > 0
        assert stream.statistics.read("dense_regions_built") > 0
        assert dense.regions() == [] and served.dense_index.region_count() == 0
        dense.close()

        for injector in federation.fault_injectors():
            injector.deactivate()
        clock.now += CircuitBreaker().recovery_seconds + 1.0
        reloaded_cache = DenseRegionCache(diamond_schema_fixture, path=path)
        reloaded = QueryReranker(federation, dense_cache=reloaded_cache, result_cache=cache)
        page = [row["id"] for row in reloaded.rerank(query, ranking, Algorithm.RERANK).top(10)]
        assert page == ranked(ranking, federation.all_matches(query))[:10]
        # A crawl over the healed federation is stored as before.
        assert reloaded_cache.regions()
        reloaded_cache.close()


    def test_a_boot_verification_over_a_dead_shard_drops_the_region(
        self, large_catalog, diamond_schema_fixture, tmp_path
    ):
        """A region stored before an outage cannot be verified while a
        shard is down at boot: it is dropped, not refreshed from the live
        shards, and after the heal a request reads the oracle's page."""
        path = str(tmp_path / "dense.sqlite")
        query = SearchQuery.build(ranges={"price": (300.0, 1500.0)})
        ranking = rankings(diamond_schema_fixture)["1d-price"]
        dense = DenseRegionCache(diamond_schema_fixture, path=path)
        first = QueryReranker(
            make_federation(large_catalog, diamond_schema_fixture), dense_cache=dense
        )
        first.rerank(query, ranking, Algorithm.RERANK).top(10)
        stored = len(dense.regions())
        assert stored > 0
        dense.close()

        clock = FakeClock()
        federation = make_federation(
            large_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
            clock=clock,
        )
        kill_shard(federation, 1)
        rebooted_cache = DenseRegionCache(diamond_schema_fixture, path=path)
        rebooted = QueryReranker(federation, dense_cache=rebooted_cache)
        counters = rebooted.verify_dense_cache()
        assert counters == {"checked": stored, "refreshed": stored, "unchanged": 0}
        assert rebooted_cache.regions() == [] and rebooted.dense_index.region_count() == 0

        for injector in federation.fault_injectors():
            injector.deactivate()
        clock.now += CircuitBreaker().recovery_seconds + 1.0
        page = [row["id"] for row in rebooted.rerank(query, ranking, Algorithm.RERANK).top(10)]
        assert page == ranked(ranking, federation.all_matches(query))[:10]
        rebooted_cache.close()


    def test_a_running_verification_over_a_dead_shard_drops_the_region(
        self, large_catalog, diamond_schema_fixture, tmp_path
    ):
        """Verification reads live answers only, even on a running reranker
        whose result cache holds the region's crawl: with shard 1 down the
        region cannot be verified, so it is dropped from the store, not kept
        unchanged.  The live crawl's region entry stays: no delta reached it."""
        query = SearchQuery.build(ranges={"price": (300.0, 1500.0)})
        ranking = rankings(diamond_schema_fixture)["1d-price"]
        federation = make_federation(
            large_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
        )
        dense = DenseRegionCache(diamond_schema_fixture, path=str(tmp_path / "dense.sqlite"))
        reranker = QueryReranker(federation, dense_cache=dense)
        reranker.rerank(query, ranking, Algorithm.RERANK).top(10)
        assert len(dense.regions()) == 1 and len(reranker.result_cache) > 0

        kill_shard(federation, 1)
        asked = federation.resilience_snapshot()["failed_attempts"]
        counters = reranker.verify_dense_cache()
        assert counters == {"checked": 1, "refreshed": 1, "unchanged": 0}
        assert federation.resilience_snapshot()["failed_attempts"] > asked
        assert dense.regions() == [] and reranker.dense_index.region_count() == 1
        dense.close()

    def test_a_region_stored_for_a_degraded_crawl_is_caught(
        self, large_catalog, diamond_schema_fixture, monkeypatch
    ):
        """The seeded mutation this class exists to catch: a dense crawl
        that does not see its degraded answers stores the live shards' rows
        as a region entry, and the reread after the heal serves them."""

        class Blind(HiddenDatabaseCrawler):
            def crawl(self, query):
                statistics = self._engine.statistics
                before = statistics.read("degraded_results")
                found = super().crawl(query)
                statistics.add(degraded_results=before - statistics.read("degraded_results"))
                return found

        monkeypatch.setattr(dense_index, "HiddenDatabaseCrawler", Blind)
        clock = FakeClock()
        federation = make_federation(
            large_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
            clock=clock,
        )
        reranker = QueryReranker(federation, result_cache=QueryResultCache())
        query = SearchQuery.build(ranges={"price": (300.0, 1500.0)})
        ranking = rankings(diamond_schema_fixture)["1d-price"]
        kill_shard(federation, 1)
        reranker.rerank(query, ranking, Algorithm.RERANK, budget=QueryBudget(500)).top(5)
        assert reranker.dense_index.region_count() > 0

        for injector in federation.fault_injectors():
            injector.deactivate()
        clock.now += CircuitBreaker().recovery_seconds + 1.0
        reread = [row["id"] for row in reranker.rerank(query, ranking, Algorithm.RERANK).top(10)]
        assert reread != ranked(ranking, federation.all_matches(query))[:10]


class TestDeadShardEndsTheRequest:
    @pytest.mark.parametrize("case", ["1d-price", "1d-table", "2d", "3d"])
    def test_a_request_over_a_dead_shard_ends_with_the_live_shards_page(
        self, large_catalog, diamond_schema_fixture, case
    ):
        """With a shard in permanent fail-stop, a RERANK request over the
        whole catalog ends well inside its budget: each degraded answer is
        classified over the live shards, so a descent or a crawl stops
        splitting where they cover it.  The page equals the brute-force
        oracle over the live shards and is flagged degraded."""
        cache = QueryResultCache()
        federation = make_federation(
            large_catalog,
            diamond_schema_fixture,
            fault_plan=FaultPlan(seed=31, transient_rate=0.0001),
        )
        reranker = QueryReranker(federation, result_cache=cache)
        ranking = rankings(diamond_schema_fixture)[case]
        query = SearchQuery.everything()
        kill_shard(federation, 1)
        missing = record_missing(federation)
        stream = reranker.rerank(query, ranking, Algorithm.RERANK, budget=QueryBudget(500))
        page = [row["id"] for row in stream.top(10)]
        live = [row for index in (0, 2) for row in federation.shards[index].all_matches(query)]
        assert page == ranked(ranking, live)[:10]
        assert stream.statistics.read("degraded_results") > 0
        assert missing == {"partial#1"}


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
