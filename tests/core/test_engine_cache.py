"""Tests for the query engine's shared-result-cache integration and the
budget / latency accounting fixes."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.parallel import QueryEngine
from repro.exceptions import QueryBudgetExceeded, SourceUnavailableError
from repro.webdb.cache import QueryResultCache
from repro.webdb.counters import QueryBudget
from repro.webdb.delta import CatalogDelta
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.interface import TopKInterface, answers
from repro.webdb import latency as latency_module
from repro.webdb.latency import LatencyModel
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import AttributeOrderRanking


@pytest.fixture()
def timed_db(diamond_catalog, diamond_schema_fixture) -> HiddenWebDatabase:
    """A deterministic 2-second-per-query database for latency accounting."""
    return HiddenWebDatabase(
        diamond_catalog,
        diamond_schema_fixture,
        AttributeOrderRanking("price"),
        system_k=10,
        latency=LatencyModel.accounted(2.0, jitter=0.0),
        name="timed-diamonds",
    )


class TestEngineResultCache:
    def test_repeat_query_is_free(self, timed_db):
        cache = QueryResultCache()
        engine = QueryEngine(timed_db, result_cache=cache)
        query = SearchQuery.build(ranges={"price": (300.0, 4000.0)})
        first = engine.search(query)
        second = engine.search(query)
        assert engine.statistics.external_queries == 1
        assert engine.statistics.result_cache_hits == 1
        assert engine.statistics.simulated_seconds == pytest.approx(2.0)
        assert second.elapsed_seconds == 0.0
        assert [row["id"] for row in second.rows] == [row["id"] for row in first.rows]
        assert engine.statistics.result_cache_hit_rate == pytest.approx(0.5)

    def test_hits_cost_zero_budget(self, timed_db):
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"carat": (0.5, 2.0)})
        warm = QueryEngine(timed_db, result_cache=cache)
        warm.search(query)
        # A second session sharing the cache can answer the same query with a
        # budget of zero: the hit never reaches the budget at all.
        cold = QueryEngine(timed_db, result_cache=cache, budget=QueryBudget(0))
        result = cold.search(query)
        assert result.rows
        assert cold.budget.used == 0
        assert cold.statistics.external_queries == 0
        assert cold.statistics.result_cache_hits == 1

    def test_sessions_share_cache_across_engines(self, timed_db):
        cache = QueryResultCache()
        queries = [
            SearchQuery.build(ranges={"price": (300.0 + i, 4000.0 + i)}) for i in range(4)
        ]
        first = QueryEngine(timed_db, result_cache=cache)
        second = QueryEngine(timed_db, result_cache=cache)
        first.search_group(queries)
        second.search_group(queries)
        assert first.statistics.external_queries == 4
        assert second.statistics.external_queries == 0
        assert second.statistics.result_cache_hits == 4
        assert second.statistics.simulated_seconds == 0.0

    def test_duplicate_query_within_a_group_hits(self, timed_db):
        cache = QueryResultCache()
        engine = QueryEngine(timed_db, result_cache=cache)
        query = SearchQuery.build(ranges={"price": (300.0, 4000.0)})
        results = engine.search_group([query, query])
        assert len(results) == 2
        assert engine.statistics.external_queries == 1
        assert engine.statistics.result_cache_hits == 1
        assert engine.statistics.simulated_seconds == pytest.approx(2.0)

    def test_bypass_cache_for_crawler_queries(self, timed_db):
        cache = QueryResultCache()
        engine = QueryEngine(timed_db, result_cache=cache)
        query = SearchQuery.build(ranges={"price": (300.0, 4000.0)})
        # Bypassed (crawler-style) queries never store into the cache...
        engine.search(query, bypass_cache=True)
        engine.search(query, bypass_cache=True)
        assert engine.statistics.external_queries == 2
        assert engine.statistics.result_cache_hits == 0
        assert len(cache) == 0
        engine.search(query)
        assert engine.statistics.external_queries == 3
        assert len(cache) == 1
        # ...but they do read it: once a normal query paid for the entry, a
        # bypassed repeat (the crawl's root region query) reuses it for free.
        engine.search(query, bypass_cache=True)
        assert engine.statistics.external_queries == 3
        assert engine.statistics.result_cache_hits == 1

    def test_a_cached_repeat_is_not_issued_again(self, timed_db):
        cache = QueryResultCache()
        engine = QueryEngine(timed_db, result_cache=cache)
        query = SearchQuery.build(ranges={"price": (300.0, 4000.0)})
        engine.search(query)
        engine.search(query)
        assert engine.statistics.external_queries == 1
        assert engine.statistics.result_cache_hits == 1

class TestBudgetAccuracy:
    def test_refused_group_does_not_inflate_used(self, bluenile_db):
        engine = QueryEngine(bluenile_db, budget=QueryBudget(2))
        engine.search(SearchQuery.everything())
        assert engine.budget.used == 1
        with pytest.raises(QueryBudgetExceeded):
            engine.search_group(
                [
                    SearchQuery.build(ranges={"carat": (0.5, 1.0 + i)})
                    for i in range(3)
                ]
            )
        # The refused group issued zero queries, so `used` must be unchanged —
        # and the remaining allowance must still be spendable.
        assert engine.budget.used == 1
        assert engine.statistics.external_queries == 1
        engine.search(SearchQuery.build(ranges={"carat": (1.0, 2.0)}))
        assert engine.budget.used == 2

    def test_charge_is_atomic_on_bare_budget(self):
        budget = QueryBudget(3)
        budget.charge(2)
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            budget.charge(2)
        assert budget.used == 2
        assert excinfo.value.budget == 3
        assert excinfo.value.issued == 4
        budget.charge(1)
        assert budget.used == 3

    def test_refund_returns_allowance(self):
        budget = QueryBudget(2)
        budget.charge(2)
        budget.refund(1)
        assert budget.used == 1
        budget.charge(1)
        assert budget.used == 2

    def test_cache_hits_leave_budget_for_real_queries(self, timed_db):
        cache = QueryResultCache()
        warm = QueryEngine(timed_db, result_cache=cache)
        shared = SearchQuery.build(ranges={"price": (300.0, 4000.0)})
        warm.search(shared)
        cold = QueryEngine(timed_db, result_cache=cache, budget=QueryBudget(1))
        cold.search(shared)  # hit: free
        cold.search(SearchQuery.build(ranges={"price": (300.0, 5000.0)}))  # miss
        assert cold.budget.used == 1
        with pytest.raises(QueryBudgetExceeded):
            cold.search(SearchQuery.build(ranges={"price": (300.0, 6000.0)}))


class _FlakyInterface(TopKInterface):
    """Raises on queries whose price upper bound matches the poison value."""

    def __init__(self, inner, poison_upper: float):
        self._inner = inner
        self._poison = poison_upper
        self.name = "flaky"

    @property
    def schema(self):
        return self._inner.schema

    @property
    def system_k(self):
        return self._inner.system_k

    @property
    def key_column(self):
        return self._inner.key_column

    def search(self, query):
        predicate = query.range_on("price")
        if predicate is not None and predicate.upper == self._poison:
            raise RuntimeError("remote exploded")
        return self._inner.search(query)


class TestBudgetOnGroupFailure:
    def test_failure_refunds_coalesced_and_hit_charges(self, bluenile_db):
        flaky = _FlakyInterface(bluenile_db, poison_upper=2000.0)
        cache = QueryResultCache()
        warm = QueryEngine(bluenile_db, result_cache=cache, cache_namespace="flaky")
        shared = SearchQuery.build(ranges={"price": (300.0, 1000.0)})
        warm.search(shared)
        engine = QueryEngine(
            flaky,
            result_cache=cache,
            cache_namespace="flaky",
            budget=QueryBudget(10),
        )
        with pytest.raises(RuntimeError):
            engine.search_group(
                [shared, SearchQuery.build(ranges={"price": (300.0, 2000.0)})]
            )
        # The hit cost nothing and the failed attempt was refunded: the
        # budget only ever counts answered round trips.
        assert engine.budget.used == 0


class TestLatencyAccounting:
    def test_single_query_group_uses_same_rule_as_larger_groups(self, timed_db):
        """A group of one and a group of two are accounted under the same
        (max) rule."""
        engine = QueryEngine(timed_db)
        engine.search_group([SearchQuery.build(ranges={"price": (300.0, 4000.0)})])
        assert engine.statistics.simulated_seconds == pytest.approx(2.0)
        engine.search_group(
            [
                SearchQuery.build(ranges={"price": (300.0, 4000.0 + i)})
                for i in range(2)
            ]
        )
        # One round trip per group: 2.0 + 2.0.
        assert engine.statistics.simulated_seconds == pytest.approx(4.0)
        assert engine.statistics.sequential_queries == 1
        assert engine.statistics.parallel_queries == 2

class TestBatchedGroups:
    """A group goes out as one ``settle_many`` call; cache semantics and
    accounting must not change."""

    def test_batched_group_issues_one_search_many_call(self, timed_db, monkeypatch):
        calls = []
        original = type(timed_db).search_many

        def spying(self, queries):
            calls.append(len(list(queries)))
            return original(self, queries)

        monkeypatch.setattr(type(timed_db), "search_many", spying)
        engine = QueryEngine(timed_db)
        queries = [
            SearchQuery.build(ranges={"price": (300.0, 4000.0 + i)}) for i in range(4)
        ]
        results = engine.search_group(queries)
        assert len(results) == 4
        assert calls == [4]
        assert engine.statistics.parallel_queries == 4

    def test_batched_group_respects_cache_hits_and_duplicates(self, timed_db):
        cache = QueryResultCache()
        warm = QueryEngine(timed_db, result_cache=cache)
        shared = SearchQuery.build(ranges={"price": (300.0, 1000.0)})
        warm.search(shared)
        # The charge is atomic and up-front for every pending miss (the
        # duplicate included); the duplicate's charge is refunded once it
        # rides the batch's own computation.
        engine = QueryEngine(timed_db, result_cache=cache, budget=QueryBudget(2))
        fresh = SearchQuery.build(ranges={"price": (300.0, 2000.0)})
        results = engine.search_group([shared, fresh, fresh])
        assert len(results) == 3
        # One real round trip (the first `fresh`); the warm hit and the
        # duplicate within the group were both free.
        assert engine.budget.used == 1
        assert engine.statistics.external_queries == 1
        assert engine.statistics.result_cache_hits == 2
        assert [row["id"] for row in results[1].rows] == [
            row["id"] for row in results[2].rows
        ]

    def test_batched_group_failure_refunds_full_charge(self, timed_db, monkeypatch):
        def exploding(self, queries):
            raise RuntimeError("remote exploded")

        monkeypatch.setattr(type(timed_db), "search_many", exploding)
        engine = QueryEngine(timed_db, budget=QueryBudget(10))
        with pytest.raises(RuntimeError):
            engine.search_group(
                [
                    SearchQuery.build(ranges={"price": (300.0, 4000.0 + i)})
                    for i in range(3)
                ]
            )
        # ``search_many`` validates before issuing, so a call that raises
        # attempted zero round trips: the whole charge comes back.
        assert engine.budget.used == 0
        # The budget is intact and the engine still works.
        monkeypatch.undo()
        engine.search(SearchQuery.build(ranges={"price": (300.0, 4000.0)}))
        assert engine.budget.used == 1

    def test_a_sleeping_group_is_one_round_trip(
        self, diamond_catalog, diamond_schema_fixture, monkeypatch
    ):
        """A sleeping database draws the accounted model's latencies, in
        batch order, and sleeps once per batch: a parallel group of four
        sleeps one query's latency, not four."""
        slept_for = []
        # Only the latency model's clock: other threads keep the real sleep.
        monkeypatch.setattr(latency_module, "time", SimpleNamespace(sleep=slept_for.append))

        def database(sleep):
            latency = LatencyModel(0.05, jitter=0.25, sleep=sleep, seed=5)
            return HiddenWebDatabase(
                diamond_catalog,
                diamond_schema_fixture,
                AttributeOrderRanking("price"),
                system_k=10,
                latency=latency,
            )

        group = [SearchQuery.build(ranges={"price": (300.0, 4000.0 + i)}) for i in range(4)]
        sleeping = QueryEngine(database(sleep=True))
        slept = sleeping.search_group(group)
        accounted = QueryEngine(database(sleep=False)).search_group(group)
        seconds = [result.elapsed_seconds for result in slept]
        assert seconds == [result.elapsed_seconds for result in accounted]
        assert len(set(seconds)) == 4
        assert slept_for == [max(seconds)]
        assert sum(slept_for) < 2 * 0.05
        assert sleeping.statistics.simulated_seconds == pytest.approx(max(seconds))

    def test_partial_batch_failure_keeps_attempted_charges(self, timed_db, monkeypatch):
        """When the batch's own round trips succeed but a retry of another
        caller's failed key raises, only the unattempted charges come back."""
        import threading
        import time as time_module

        cache = QueryResultCache()
        namespace = "timed-diamonds"
        healthy = SearchQuery.build(ranges={"price": (300.0, 1000.0)})
        poisoned = SearchQuery.build(ranges={"price": (300.0, 2000.0)})
        release = threading.Event()

        def owner():
            def compute():
                release.wait(5.0)
                raise RuntimeError("owner died")

            try:
                cache.fetch(namespace, poisoned, timed_db.system_k, compute)
            except RuntimeError:
                pass

        original = type(timed_db).search_many

        def flaky(self, queries):
            materialized = list(queries)
            if poisoned in materialized:
                raise RuntimeError("retry exploded")
            results = original(self, materialized)
            # The batch succeeded; now let the blocked owner fail, so the
            # engine's wait on the poisoned key observes the error and
            # retries (and that retry explodes above).
            release.set()
            return results

        monkeypatch.setattr(type(timed_db), "search_many", flaky)
        thread = threading.Thread(target=owner)
        thread.start()
        try:
            deadline = time_module.time() + 5.0
            while not len(cache._inflight) and time_module.time() < deadline:
                time_module.sleep(0.001)
            engine = QueryEngine(timed_db, result_cache=cache, budget=QueryBudget(10))
            with pytest.raises(RuntimeError):
                engine.search_group([healthy, poisoned])
        finally:
            release.set()
            thread.join(timeout=5.0)
        # `healthy` was attempted (one real round trip, now cached); only the
        # poisoned query's charge was refunded.
        assert engine.budget.used == 1
        assert cache.probe(namespace, healthy, timed_db.system_k) is not None


class TestFetchMany:
    def test_fetch_many_statuses_and_single_compute(self, timed_db):
        cache = QueryResultCache()
        namespace = "batch"
        stored = SearchQuery.build(ranges={"price": (300.0, 1000.0)})
        cache.store(namespace, stored, timed_db.system_k, timed_db.search(stored))
        fresh = SearchQuery.build(ranges={"price": (300.0, 2000.0)})
        batches = []

        def compute_many(queries):
            batches.append(list(queries))
            return timed_db.search_many(queries)

        outcomes = cache.fetch_many(
            namespace, [stored, fresh, fresh], timed_db.system_k, compute_many
        )
        statuses = [status for _, status in outcomes]
        from repro.webdb.cache import FetchStatus

        assert statuses == [FetchStatus.HIT, FetchStatus.MISS, FetchStatus.HIT]
        # The two identical fresh queries collapsed onto one computed query.
        assert [len(batch) for batch in batches] == [1]
        assert len(cache) == 2

    def test_fetch_many_failure_does_not_poison_keys(self, timed_db):
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (300.0, 2000.0)})

        def exploding(queries):
            raise RuntimeError("remote exploded")

        with pytest.raises(RuntimeError):
            cache.fetch_many("batch", [query], timed_db.system_k, exploding)
        # The key must be retryable afterwards.
        outcomes = cache.fetch_many(
            "batch", [query], timed_db.system_k, timed_db.search_many
        )
        assert len(outcomes) == 1
        assert outcomes[0][0].rows


class _SettlingSource(TopKInterface):
    """A source that counts the round trips it answered and fails one poison
    query.  Its ``settle_many`` raises for the whole batch, like a database
    validating before it issues anything, or with ``settles_each`` settles
    the poison query alone, like a remote adapter."""

    name = "settle"

    def __init__(self, inner, poison=None, error=None, settles_each=False):
        self._inner = inner
        self._poison = poison
        self._error = error
        self._settles_each = settles_each
        self._lock = threading.Lock()
        self.answered = 0

    @property
    def schema(self):
        return self._inner.schema

    @property
    def system_k(self):
        return self._inner.system_k

    def search(self, query):
        return self.search_many([query])[0]

    def search_many(self, queries):
        return answers(self.settle_many(queries))

    def settle_many(self, queries):
        batch = list(queries)
        if self._poison in batch and not self._settles_each:
            raise self._error
        results = iter(self._inner.search_many([q for q in batch if q != self._poison]))
        settled = [self._error if query == self._poison else next(results) for query in batch]
        with self._lock:
            self.answered += sum(1 for answer in settled if answer is not self._error)
        return settled


def _price_upto(upper):
    return SearchQuery.build(ranges={"price": (300.0, upper)})


class TestSettlementInvariant:
    """``budget.used`` equals the round trips that answered, whether the
    source fails a batch whole or settles each query on its own, whatever
    became of each query of the group, and wherever in the group the query
    that met that fate sits."""

    FRESH = [_price_upto(4000.0), _price_upto(5000.0)]
    #: name: index of the special query in the group of three
    POSITIONS = {"middle": 1, "last": 2}

    def _group(self, special, position):
        group = list(self.FRESH)
        group.insert(self.POSITIONS[position], special)
        return group

    @pytest.mark.parametrize("position", sorted(POSITIONS))
    @pytest.mark.parametrize("settles_each", [False, True], ids=["whole", "each"])
    @pytest.mark.parametrize(
        "scenario",
        ["hit", "contained", "coalesced", "issued", "failed", "retired"],
    )
    def test_budget_equals_answered_round_trips(
        self, timed_db, scenario, settles_each, position
    ):
        cache = QueryResultCache()
        namespace = _SettlingSource.name
        k = timed_db.system_k
        special = _price_upto(2000.0)
        poison = error = None
        owner = None
        if scenario == "hit":
            # A duplicate within the group rides its twin's round trip.
            special = self.FRESH[0]
        elif scenario == "contained":
            # A stored covering (valid) entry answers its subset for free.
            lower, upper = timed_db.schema.domain_bounds("price")
            width = (upper - lower) / 256
            covering = next(
                query
                for query in (
                    SearchQuery.build(
                        ranges={"price": (lower + i * width, lower + (i + 1) * width)}
                    )
                    for i in range(256)
                )
                if 0 < len(timed_db.all_matches(query)) <= k
            )
            cache.store(namespace, covering, k, timed_db.search(covering))
            bounds = covering.range_on("price")
            special = SearchQuery.build(
                ranges={"price": (bounds.lower, (bounds.lower + bounds.upper) / 2)}
            )
        group = self._group(special, position)
        if scenario == "coalesced":
            # Another caller owns the in-flight round trip for ``special``.
            release = threading.Event()

            def slow_compute():
                release.wait(5.0)
                return timed_db.search(special)

            owner = threading.Thread(
                target=cache.fetch, args=(namespace, special, k, slow_compute)
            )
            owner.start()
            deadline = time.monotonic() + 5.0
            while not cache._inflight and time.monotonic() < deadline:
                time.sleep(0.001)
            assert cache._inflight
            threading.Timer(0.05, release.set).start()
        elif scenario == "failed":
            poison, error = special, RuntimeError("remote exploded")
        elif scenario == "retired":
            # The group was answered once, then a delta touching a tuple
            # every query of it matches retired all three entries; the
            # source is now down for ``special``.  A retired answer is gone:
            # nothing serves it in place of the failed round trip.
            for query in group:
                cache.fetch(namespace, query, k, lambda: timed_db.search(query))
            touched = timed_db.all_matches(special)[0]
            delta = CatalogDelta.from_rows(namespace, timed_db.schema.key, [touched])
            assert cache.invalidate_delta(namespace, delta) == 3
            poison, error = special, SourceUnavailableError("source down")

        source = _SettlingSource(timed_db, poison=poison, error=error, settles_each=settles_each)
        engine = QueryEngine(source, result_cache=cache, budget=QueryBudget(10))
        raised = None
        try:
            results = engine.search_group(group)
        except (RuntimeError, SourceUnavailableError) as caught:
            raised = caught
        finally:
            if owner is not None:
                owner.join(timeout=5.0)
                assert not owner.is_alive()

        # The invariant, in every cell.
        assert engine.budget.used == source.answered
        assert engine.statistics.external_queries == (
            0 if raised is not None else source.answered
        )

        # And each cell did exercise what its name says.
        statistics = engine.statistics
        if scenario in ("failed", "retired"):
            assert isinstance(raised, (RuntimeError, SourceUnavailableError))
            # A batch failed whole answered nothing; one settled query by
            # query answered the two healthy queries.
            assert source.answered == (2 if settles_each else 0)
            assert cache.probe(namespace, special, k) is None
        else:
            assert raised is None and len(results) == 3
            assert source.answered == (3 if scenario == "issued" else 2)
            witness = {
                "hit": statistics.result_cache_hits + statistics.coalesced_queries,
                "contained": statistics.contained_answers,
                "coalesced": statistics.coalesced_queries,
                "issued": 1,
            }[scenario]
            assert witness == 1

    def test_a_failed_query_leaves_its_siblings_issued_paid_and_cached(self, timed_db):
        """Over a source that settles each query of a batch on its own, one
        query failing does not fail its group's siblings: they are issued,
        paid and cached, and the group still raises."""
        down = _price_upto(2000.0)
        healthy = [_price_upto(4000.0), _price_upto(5000.0), _price_upto(6000.0)]
        source = _SettlingSource(
            timed_db, poison=down, error=SourceUnavailableError("source down"), settles_each=True
        )
        cache = QueryResultCache()
        engine = QueryEngine(source, result_cache=cache, budget=QueryBudget(10))
        results = engine.search_group(healthy)
        with pytest.raises(SourceUnavailableError):
            engine.search_group([healthy[0], down, _price_upto(7000.0)])
        assert source.answered == engine.budget.used == 4
        assert cache.probe(source.name, _price_upto(7000.0), source.system_k) is not None
        assert [result.rows for result in results] == [
            timed_db.search(query).rows for query in healthy
        ]
        statistics = engine.statistics.snapshot()
        assert statistics["parallel_fraction"] == 1.0
        assert statistics["simulated_seconds"] == pytest.approx(2.0)
