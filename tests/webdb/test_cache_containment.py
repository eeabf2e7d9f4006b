"""Containment answering, invalidation-race, and statistics-consistency tests
for the shared query-result cache.

The containment property is the paper's covered-region guarantee turned into
a cache policy: a stored *covering* (valid/underflow) result for a superset
query holds every tuple matching any subset query, in hidden-rank order, so
the subset's answer can be derived locally and must be byte-identical to a
fresh engine query.  Overflow entries are truncated and must never be used
this way.
"""

import random
import threading

import pytest

from repro.core.parallel import QueryEngine
from repro.webdb.cache import CacheStatistics, FetchStatus, QueryResultCache
from repro.webdb.counters import QueryBudget
from repro.webdb.interface import Outcome
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery


def _find_valid_query(db, attribute="carat"):
    """A deterministic query whose result is VALID (covering) against the
    session fixture: anchor a window on the largest observed values so the
    match count stays between 1 and ``system_k``."""
    values = sorted(row[attribute] for row in db.all_matches(SearchQuery.everything()))
    top = float(values[-1])
    for count in (max(2, db.system_k // 2), db.system_k - 1, 3, 2):
        query = SearchQuery.build(ranges={attribute: (float(values[-count]), top)})
        result = db.search(query)
        if result.is_valid:
            return query, result
    raise AssertionError("fixture catalog yields no covering query; adjust bounds")


class TestContainmentAnswering:
    def test_covering_superset_answers_subset(self, bluenile_db):
        cache = QueryResultCache()
        wide, wide_result = _find_valid_query(bluenile_db)
        cache.store("bn", wide, bluenile_db.system_k, wide_result)
        predicate = wide.ranges[0]
        margin = (predicate.upper - predicate.lower) * 0.25
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower + margin, predicate.upper)}
        )
        probe = cache.probe("bn", narrow, bluenile_db.system_k)
        assert probe is not None
        result, status = probe
        assert status is FetchStatus.CONTAINED
        fresh = bluenile_db.search(narrow)
        assert result.outcome is fresh.outcome
        assert [list(row.items()) for row in result.rows] == [
            list(row.items()) for row in fresh.rows
        ]
        assert result.elapsed_seconds == 0.0
        assert cache.statistics.contained == 1

    def test_contained_answer_is_memoized_as_exact_entry(self, bluenile_db):
        cache = QueryResultCache()
        wide, wide_result = _find_valid_query(bluenile_db)
        cache.store("bn", wide, bluenile_db.system_k, wide_result)
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        first = cache.probe("bn", narrow, bluenile_db.system_k)
        second = cache.probe("bn", narrow, bluenile_db.system_k)
        assert first is not None and first[1] is FetchStatus.CONTAINED
        assert second is not None and second[1] is FetchStatus.HIT

    def test_overflow_entry_never_answers_subset(self, bluenile_db):
        cache = QueryResultCache()
        everything = SearchQuery.everything()
        result = bluenile_db.search(everything)
        assert result.is_overflow  # 400 tuples >> k
        cache.store("bn", everything, bluenile_db.system_k, result)
        narrow = SearchQuery.build(ranges={"carat": (0.5, 2.0)})
        assert cache.probe("bn", narrow, bluenile_db.system_k) is None

    def test_underflow_entry_answers_subset(self, bluenile_db):
        cache = QueryResultCache()
        lower, upper = bluenile_db.schema.domain_bounds("price")
        empty = SearchQuery.build(ranges={"price": (upper - 1e-6, upper)})
        result = bluenile_db.search(empty)
        if not result.is_underflow:
            pytest.skip("fixture has tuples at the extreme top of the domain")
        cache.store("bn", empty, bluenile_db.system_k, result)
        narrower = SearchQuery.build(
            ranges={"price": (upper - 1e-7, upper)}, memberships={"cut": ["good"]}
        )
        probe = cache.probe("bn", narrower, bluenile_db.system_k)
        assert probe is not None
        assert probe[1] is FetchStatus.CONTAINED
        assert probe[0].outcome is Outcome.UNDERFLOW

    def test_membership_subset_containment(self, bluenile_db):
        cache = QueryResultCache()
        wide, _ = _find_valid_query(bluenile_db)
        categories = list(
            bluenile_db.schema.require_categorical("cut").categories
        )
        wide = wide.with_membership(InPredicate.of("cut", categories))
        wide_result = bluenile_db.search(wide)
        if not wide_result.covers_query:
            pytest.skip("widened query overflows on this fixture")
        cache.store("bn", wide, bluenile_db.system_k, wide_result)
        narrow = wide.without_attribute("cut").with_membership(
            InPredicate.of("cut", categories[:1])
        )
        probe = cache.probe("bn", narrow, bluenile_db.system_k)
        assert probe is not None and probe[1] is FetchStatus.CONTAINED
        fresh = bluenile_db.search(narrow)
        assert [row["id"] for row in probe[0].rows] == [row["id"] for row in fresh.rows]
        assert probe[0].outcome is fresh.outcome

    def test_evicted_covering_entry_stops_answering(self, bluenile_db):
        cache = QueryResultCache(max_entries=1)
        wide, wide_result = _find_valid_query(bluenile_db)
        cache.store("bn", wide, bluenile_db.system_k, wide_result)
        # Push the covering entry out of the LRU.
        other = SearchQuery.everything()
        cache.store("bn", other, bluenile_db.system_k, bluenile_db.search(other))
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        assert cache.probe("bn", narrow, bluenile_db.system_k) is None

    def test_derived_entry_inherits_source_ttl(self, bluenile_db):
        """A containment answer is an observation made at the *source*
        entry's time, so memoizing it must not extend the TTL horizon —
        otherwise chained derivations could replay stale data forever."""

        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = Clock()
        cache = QueryResultCache(ttl_seconds=10.0, clock=clock)
        wide, wide_result = _find_valid_query(bluenile_db)
        cache.store("bn", wide, bluenile_db.system_k, wide_result)
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        clock.now = 9.0  # derive (and memoize) just before the source expires
        probe = cache.probe("bn", narrow, bluenile_db.system_k)
        assert probe is not None and probe[1] is FetchStatus.CONTAINED
        clock.now = 10.5  # past the *source* observation's lifetime
        assert cache.probe("bn", narrow, bluenile_db.system_k) is None
        assert cache.probe("bn", wide, bluenile_db.system_k) is None

    def test_read_only_probe_does_not_memoize(self, bluenile_db):
        """``memoize=False`` (the crawler's bypass path) derives the answer
        without storing it, so one-off queries cannot churn the LRU."""
        cache = QueryResultCache()
        wide, wide_result = _find_valid_query(bluenile_db)
        cache.store("bn", wide, bluenile_db.system_k, wide_result)
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        probe = cache.probe("bn", narrow, bluenile_db.system_k, memoize=False)
        assert probe is not None and probe[1] is FetchStatus.CONTAINED
        assert len(cache) == 1  # only the covering entry, nothing memoized
        # A memoizing probe afterwards still derives (and now stores).
        again = cache.probe("bn", narrow, bluenile_db.system_k)
        assert again is not None and again[1] is FetchStatus.CONTAINED
        assert len(cache) == 2

    def test_namespace_and_system_k_isolation(self, bluenile_db):
        cache = QueryResultCache()
        wide, wide_result = _find_valid_query(bluenile_db)
        cache.store("bn", wide, bluenile_db.system_k, wide_result)
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        assert cache.probe("other", narrow, bluenile_db.system_k) is None
        assert cache.probe("bn", narrow, bluenile_db.system_k + 1) is None

    def test_fetch_many_reports_contained(self, bluenile_db):
        cache = QueryResultCache()
        wide, wide_result = _find_valid_query(bluenile_db)
        cache.store("bn", wide, bluenile_db.system_k, wide_result)
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        fresh_needed = SearchQuery.build(ranges={"depth": (0.0, 100.0)})
        outcomes = cache.fetch_many(
            "bn",
            [narrow, fresh_needed],
            bluenile_db.system_k,
            lambda queries: [bluenile_db.search(q) for q in queries],
        )
        assert outcomes[0][1] is FetchStatus.CONTAINED
        assert outcomes[1][1] is FetchStatus.MISS
        assert [row["id"] for row in outcomes[0][0].rows] == [
            row["id"] for row in bluenile_db.search(narrow).rows
        ]

    def test_random_superset_subset_pairs_identical_to_fresh_query(self, bluenile_db):
        """Property test: for random superset/subset pairs, a containment
        answer is byte-identical to a fresh engine query, and overflow
        supersets never answer."""
        rng = random.Random(20260729)
        schema = bluenile_db.schema
        attributes = ["carat", "price", "depth"]
        categories = list(schema.require_categorical("cut").categories)
        contained_seen = 0
        overflow_seen = 0
        for _ in range(150):
            cache = QueryResultCache()
            attribute = rng.choice(attributes)
            lower, upper = schema.domain_bounds(attribute)
            a, b = sorted((rng.uniform(lower, upper), rng.uniform(lower, upper)))
            wide = SearchQuery.build(ranges={attribute: (a, b)})
            wide_result, status = cache.fetch(
                "bn", wide, bluenile_db.system_k, lambda q=wide: bluenile_db.search(q)
            )
            assert status is FetchStatus.MISS
            c, d = sorted((rng.uniform(a, b), rng.uniform(a, b)))
            narrow = SearchQuery.build(ranges={attribute: (c, d)})
            if rng.random() < 0.4:
                # The subset may constrain *more* attributes than the superset.
                chosen = rng.sample(categories, rng.randint(1, len(categories)))
                narrow = narrow.with_membership(InPredicate.of("cut", chosen))
            assert wide.contains(narrow)
            probe = cache.probe("bn", narrow, bluenile_db.system_k)
            if wide_result.is_overflow:
                assert probe is None, "overflow entries must never answer subsets"
                overflow_seen += 1
                continue
            assert probe is not None
            derived, probe_status = probe
            assert probe_status is FetchStatus.CONTAINED
            fresh = bluenile_db.search(narrow)
            assert derived.outcome is fresh.outcome
            assert derived.system_k == fresh.system_k
            assert [list(row.items()) for row in derived.rows] == [
                list(row.items()) for row in fresh.rows
            ]
            contained_seen += 1
        # The trial mix must actually exercise both sides of the property.
        assert contained_seen >= 20
        assert overflow_seen >= 20


class TestEngineContainmentAccounting:
    def test_search_group_contained_costs_zero_budget_and_latency(self, bluenile_db):
        cache = QueryResultCache()
        budget = QueryBudget(2)
        engine = QueryEngine(
            bluenile_db, result_cache=cache, cache_namespace="bn", budget=budget
        )
        wide, _ = _find_valid_query(bluenile_db)
        engine.search(wide)  # one real round trip, stored as covering
        assert budget.used == 1
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        simulated_before = engine.statistics.simulated_seconds
        result = engine.search(narrow)
        assert budget.used == 1  # containment answers are free
        assert engine.statistics.external_queries == 1
        assert engine.statistics.contained_answers == 1
        assert engine.statistics.simulated_seconds == simulated_before
        assert [row["id"] for row in result.rows] == [
            row["id"] for row in bluenile_db.search(narrow).rows
        ]

    def test_contained_answers_surface_in_snapshot(self, bluenile_db):
        cache = QueryResultCache()
        engine = QueryEngine(bluenile_db, result_cache=cache, cache_namespace="bn")
        wide, _ = _find_valid_query(bluenile_db)
        engine.search(wide)
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        engine.search(narrow)
        snapshot = engine.statistics.snapshot()
        assert snapshot["contained_answers"] == 1
        assert snapshot["result_cache_hit_rate"] == 0.5


class TestInvalidationGeneration:
    def _gated_fetch(self, cache, db, query, namespace="ns"):
        started, release = threading.Event(), threading.Event()
        outcomes = []

        def compute():
            started.set()
            assert release.wait(timeout=5.0)
            return db.search(query)

        thread = threading.Thread(
            target=lambda: outcomes.append(
                cache.fetch(namespace, query, db.system_k, compute)
            )
        )
        thread.start()
        assert started.wait(timeout=5.0)
        return thread, release, outcomes

    def test_invalidate_drops_store_from_preinvalidation_query(self, bluenile_db):
        """Regression: an in-flight query that began before invalidate() must
        not resurrect its (stale) result afterwards."""
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (0.0, 5000.0)})
        thread, release, outcomes = self._gated_fetch(cache, bluenile_db, query)
        cache.invalidate("ns")
        release.set()
        thread.join(timeout=5.0)
        result, status = outcomes[0]
        assert status is FetchStatus.MISS  # the caller still gets its answer
        assert cache.lookup("ns", query, bluenile_db.system_k) is None
        # Post-invalidation queries store normally again.
        cache.fetch(
            "ns", query, bluenile_db.system_k, lambda: bluenile_db.search(query)
        )
        assert cache.lookup("ns", query, bluenile_db.system_k) is not None

    def test_global_invalidate_also_drops_stale_stores(self, bluenile_db):
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (0.0, 5000.0)})
        thread, release, outcomes = self._gated_fetch(cache, bluenile_db, query)
        cache.invalidate()
        release.set()
        thread.join(timeout=5.0)
        assert outcomes[0][1] is FetchStatus.MISS
        assert cache.lookup("ns", query, bluenile_db.system_k) is None

    def test_invalidating_other_namespace_does_not_drop_store(self, bluenile_db):
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (0.0, 5000.0)})
        thread, release, outcomes = self._gated_fetch(cache, bluenile_db, query)
        cache.invalidate("unrelated")
        release.set()
        thread.join(timeout=5.0)
        assert outcomes[0][1] is FetchStatus.MISS
        assert cache.lookup("ns", query, bluenile_db.system_k) is not None

    def test_fetch_many_stores_dropped_after_invalidation(self, bluenile_db):
        cache = QueryResultCache()
        queries = [
            SearchQuery.build(ranges={"price": (0.0, 4000.0 + i)}) for i in range(3)
        ]
        started, release = threading.Event(), threading.Event()
        outcomes = []

        def compute_many(batch):
            started.set()
            assert release.wait(timeout=5.0)
            return [bluenile_db.search(q) for q in batch]

        thread = threading.Thread(
            target=lambda: outcomes.append(
                cache.fetch_many("ns", queries, bluenile_db.system_k, compute_many)
            )
        )
        thread.start()
        assert started.wait(timeout=5.0)
        cache.invalidate("ns")
        release.set()
        thread.join(timeout=5.0)
        assert [status for _, status in outcomes[0]] == [FetchStatus.MISS] * 3
        assert len(cache) == 0


class TestStatisticsConsistency:
    def test_snapshot_hit_rate_always_matches_its_counters(self):
        """Regression: snapshot() must compute the hit rate from the same
        locked read as the counters it reports."""
        statistics = CacheStatistics()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                statistics.record("hits")
                statistics.record("contained")
                statistics.record("misses")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                snapshot = statistics.snapshot()
                total = (
                    snapshot["hits"]
                    + snapshot["contained"]
                    + snapshot["coalesced"]
                    + snapshot["misses"]
                )
                served = (
                    snapshot["hits"] + snapshot["contained"] + snapshot["coalesced"]
                )
                expected = 0.0 if total == 0 else served / total
                assert snapshot["hit_rate"] == round(expected, 4)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_lookups_and_hit_rate_include_contained(self):
        statistics = CacheStatistics()
        statistics.record("hits", 2)
        statistics.record("contained", 1)
        statistics.record("misses", 1)
        assert statistics.lookups == 4
        assert statistics.hit_rate == pytest.approx(0.75)
