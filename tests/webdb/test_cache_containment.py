"""Containment answering, invalidation-race, and statistics-consistency tests
for the shared query-result cache.

The containment property is the paper's covered-region guarantee turned into
a cache policy: a stored *covering* (valid/underflow) result for a superset
query holds every tuple matching any subset query, in hidden-rank order, so
the subset's answer can be derived locally and must be byte-identical to a
fresh engine query.  Overflow entries are truncated and must never be used
this way.
"""

import functools
import math
import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parallel import QueryEngine
from repro.core.reranker import QueryReranker
from repro.webdb.cache import CacheStatistics, FetchStatus, QueryResultCache, default_namespace
from repro.webdb.counters import QueryBudget
from repro.webdb.delta import CatalogDelta, ChangeLog
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery
from tests.reference import covering_count, covering_scan


def _find_valid_query(db, attribute="carat"):
    """A deterministic query whose result is VALID (covering) against the
    session fixture: anchor a window on the largest observed values so the
    match count stays between 1 and ``system_k``."""
    values = sorted(row[attribute] for row in db.all_matches(SearchQuery.everything()))
    top = float(values[-1])
    for count in (max(2, db.system_k // 2), db.system_k - 1, 3, 2):
        query = SearchQuery.build(ranges={attribute: (float(values[-count]), top)})
        result = db.search(query)
        if result.outcome is Outcome.VALID:
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

    def test_a_contained_answer_shares_the_covering_rows_and_refuses_writes(
        self, bluenile_db
    ):
        """The memoized derived entry shares its rows with the covering
        entry, and every reader gets those same read-only rows."""
        cache = QueryResultCache()
        k = bluenile_db.system_k
        wide, wide_result = _find_valid_query(bluenile_db)
        cache.store("bn", wide, k, wide_result)
        predicate = wide.ranges[0]
        narrow = SearchQuery.build(
            ranges={predicate.attribute: (predicate.lower, predicate.upper - 1e-9)}
        )
        contained, status = cache.probe("bn", narrow, k)
        assert status is FetchStatus.CONTAINED and contained.rows
        wide_ids = {id(row) for row in wide_result.rows}
        assert all(id(row) in wide_ids for row in contained.rows)
        for row in contained.rows:
            with pytest.raises(TypeError):
                row[predicate.attribute] = -1.0
            with pytest.raises(TypeError):
                row["mutated"] = True
        hit, status = cache.probe("bn", narrow, k)
        assert status is FetchStatus.HIT and hit is contained
        assert cache.probe("bn", wide, k)[0].rows == wide_result.rows

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

    #: A delta touching a stone priced inside every gated query below.
    MATCHING = CatalogDelta.from_rows("ns", "id", [{"id": "x", "price": 100.0}], upserts=1)

    def test_a_matching_delta_drops_the_store_of_a_query_claimed_before_it(
        self, bluenile_db
    ):
        """Regression: an in-flight query that began before a delta it can
        match must not resurrect its out-of-date result afterwards."""
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (0.0, 5000.0)})
        thread, release, outcomes = self._gated_fetch(cache, bluenile_db, query)
        cache.invalidate_delta("ns", self.MATCHING)
        release.set()
        thread.join(timeout=5.0)
        result, status = outcomes[0]
        assert status is FetchStatus.MISS  # the caller still gets its answer
        assert cache.probe("ns", query, bluenile_db.system_k) is None
        assert cache.statistics.snapshot()["delta_blocked_stores"] == 1
        # Queries claimed after the delta store normally again.
        cache.fetch(
            "ns", query, bluenile_db.system_k, lambda: bluenile_db.search(query)
        )
        assert cache.probe("ns", query, bluenile_db.system_k) is not None

    def test_a_delta_in_another_namespace_does_not_drop_the_store(self, bluenile_db):
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (0.0, 5000.0)})
        thread, release, outcomes = self._gated_fetch(cache, bluenile_db, query)
        cache.invalidate_delta("unrelated", self.MATCHING.with_namespace("unrelated"))
        release.set()
        thread.join(timeout=5.0)
        assert outcomes[0][1] is FetchStatus.MISS
        assert cache.probe("ns", query, bluenile_db.system_k) is not None

    def test_deltas_drop_only_the_stores_they_can_match(self, bluenile_db):
        """A delta that cannot match the in-flight query lets it store; a
        claim older than the change log's tail is dropped, since the deltas
        it missed can no longer be read back, and only a matching delta
        counts as ``delta_blocked_stores``."""
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (0.0, 5000.0)})
        elsewhere = CatalogDelta.from_rows(
            "ns", "id", [{"id": "x", "price": 9.0e9}], upserts=1
        )
        thread, release, outcomes = self._gated_fetch(cache, bluenile_db, query)
        cache.invalidate_delta("ns", elsewhere)
        release.set()
        thread.join(timeout=5.0)
        assert cache.probe("ns", query, bluenile_db.system_k) is not None

        cache = QueryResultCache()
        thread, release, outcomes = self._gated_fetch(cache, bluenile_db, query)
        for _ in range(ChangeLog.LIMIT + 1):
            cache.invalidate_delta("ns", elsewhere)
        release.set()
        thread.join(timeout=5.0)
        assert outcomes[0][1] is FetchStatus.MISS
        assert cache.probe("ns", query, bluenile_db.system_k) is None
        assert cache.statistics.snapshot()["delta_blocked_stores"] == 0

    def test_closing_a_reranker_is_not_a_data_change(self, bluenile_db, zillow_db):
        """Answers claimed before ``QueryReranker.close()`` still store and
        then hit: closing retires feeds but logs no change, neither in its
        own namespace nor in another source's sharing the cache."""
        cache = QueryResultCache()
        closing = QueryReranker(bluenile_db, result_cache=cache)
        QueryReranker(zillow_db, result_cache=cache)
        query = SearchQuery.everything()
        sources = [(db, default_namespace(db)) for db in (bluenile_db, zillow_db)]
        flights = [
            self._gated_fetch(cache, db, query, namespace=namespace)
            for db, namespace in sources
        ]
        sequences = [cache.changes(namespace).sequence for _, namespace in sources]
        closing.close()
        for thread, release, _ in flights:
            release.set()
            thread.join(timeout=5.0)
        assert [cache.changes(namespace).sequence for _, namespace in sources] == sequences
        for (db, namespace), (_, _, outcomes) in zip(sources, flights):
            assert outcomes[0][1] is FetchStatus.MISS
            hit = cache.probe(namespace, query, db.system_k)
            assert hit is not None and hit[1] is FetchStatus.HIT

    def test_fetch_many_stores_dropped_after_a_matching_delta(self, bluenile_db):
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
        cache.invalidate_delta("ns", self.MATCHING)
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


def _covering(query, rows=()):
    """A covering answer for ``query`` (UNDERFLOW, or VALID with rows)."""
    return SearchResult(
        query=query,
        rows=tuple(rows),
        outcome=Outcome.VALID if rows else Outcome.UNDERFLOW,
        system_k=3,
    )


@pytest.fixture()
def contains_calls(monkeypatch):
    """Counts ``SearchQuery.contains`` calls (the exact containment check)."""
    calls = [0]
    original = SearchQuery.contains

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(SearchQuery, "contains", counted)
    return calls


class TestContainmentLookupWork:
    """Machine-independent bounds: a lookup examines the boxes that can
    cover it, not every covering entry in scope (a scan makes ~4 096
    ``contains`` calls in both cases)."""

    def test_disjoint_intervals_cost_at_most_two_checks(self, contains_calls):
        cache = QueryResultCache(max_entries=4096)
        for i in range(4096):
            query = SearchQuery((RangePredicate("x", float(i), i + 0.5),))
            cache.store("ns", query, 3, _covering(query))
        probes = 0
        for i in range(0, 4096, 37):
            for lower, expected in ((0.1, FetchStatus.CONTAINED), (0.6, None)):
                query = SearchQuery((RangePredicate("x", i + lower, i + lower + 0.3),))
                contains_calls[0] = 0
                outcome = cache.probe("ns", query, 3, memoize=False)
                assert (outcome and outcome[1]) == expected
                assert contains_calls[0] <= 2
                probes += 1
        assert probes > 200

    def test_grid_probe_straddling_the_second_axis_costs_one_column(self, contains_calls):
        cache = QueryResultCache(max_entries=4096)
        for i in range(64):
            for j in range(64):
                query = SearchQuery(
                    (
                        RangePredicate("a", float(i), i + 1.0),
                        RangePredicate("b", float(j), j + 1.0),
                    )
                )
                cache.store("ns", query, 3, _covering(query))
        for i in range(0, 64, 5):
            for j in range(0, 63, 7):
                query = SearchQuery(
                    (
                        RangePredicate("a", i + 0.2, i + 0.8),
                        RangePredicate("b", j + 0.5, j + 1.5),
                    )
                )
                contains_calls[0] = 0
                assert cache.probe("ns", query, 3, memoize=False) is None
                assert contains_calls[0] <= 65


# --------------------------------------------------------------------------- #
# The indexed lookup against the linear scan it replaced
# --------------------------------------------------------------------------- #
#: A fixed catalog in hidden-rank order: every stored answer is computed from
#: it, so every live covering entry is the truth and any derivation must be.
CATALOG = tuple(
    {
        "id": f"r{i}",
        "x": float(i % 5),
        "y": float((3 * i) % 7),
        "z": float((2 * i) % 4),
        "c": "abc"[i % 3],
    }
    for i in range(9)
)
BOUNDS = [-math.inf, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0, math.inf]


def _answer(query, system_k, degraded=False):
    matched = [row for row in CATALOG if query.matches(row)]
    if degraded:
        outcome = Outcome.OVERFLOW
    elif len(matched) > system_k:
        outcome = Outcome.OVERFLOW
    else:
        outcome = Outcome.VALID if matched else Outcome.UNDERFLOW
    return SearchResult(
        query=query,
        rows=tuple(dict(row) for row in matched[:system_k]),
        outcome=outcome,
        system_k=system_k,
        elapsed_seconds=0.5,
        degraded=degraded,
    )


ATTRIBUTES = ("x", "y", "z")


def _draw_range(draw, attribute, outer=None):
    """A range on the ``BOUNDS`` grid inside ``outer`` (if given): ``±inf``
    ends, inclusive point ranges, and exclusive bounds equal to an inclusive
    bound elsewhere.  On a bound shared with an exclusive ``outer`` bound,
    half the draws are inclusive: a near miss ``outer`` does not contain."""
    lower, upper = (outer.lower, outer.upper) if outer else (-math.inf, math.inf)
    low, high = draw(st.sampled_from(_pairs(lower, upper)))
    if low == high:
        return RangePredicate(attribute, low, high)
    flags = draw(st.integers(0, 3))
    include_lower, include_upper = bool(flags & 1), bool(flags & 2)
    if outer and low == lower:
        include_lower = outer.include_lower or include_lower
    if outer and high == upper:
        include_upper = outer.include_upper or include_upper
    return RangePredicate(attribute, low, high, include_lower, include_upper)


@functools.lru_cache(maxsize=None)
def _pairs(lower, upper):
    """Every ``(low, high)`` grid pair with ``lower <= low <= high <= upper``."""
    return tuple(
        (low, high)
        for low in BOUNDS
        for high in BOUNDS
        if lower <= low <= high <= upper and low != math.inf and high != -math.inf
    )


@st.composite
def _queries(draw, within=None):
    """A fresh query, or (``within`` given) a narrowing of ``within``."""
    ranges = []
    for attribute in ATTRIBUTES:
        outer = within.range_on(attribute) if within is not None else None
        if outer is not None or draw(st.booleans()):
            ranges.append(_draw_range(draw, attribute, outer))
    outer = within.membership_on("c") if within is not None else None
    values = tuple(sorted(outer.values)) if outer is not None else "abc"
    memberships = ()
    if outer is not None or draw(st.booleans()):
        memberships = (InPredicate.of("c", draw(st.sets(st.sampled_from(values), min_size=1))),)
    return SearchQuery(tuple(ranges), memberships)


def _assert_is_the_answer(result, query, system_k):
    truth = _answer(query, system_k)
    assert result.outcome is truth.outcome
    assert result.system_k == system_k
    assert [list(row.items()) for row in result.rows] == [
        list(row.items()) for row in truth.rows
    ]


class TestIndexedLookupMatchesTheScan:
    """Random store / probe / fetch / fetch_many / invalidate / delta
    sequences over a small LRU: before every containment lookup
    the linear scan over the cache's own live entries is evaluated, and the
    indexed lookup must find a covering entry iff the scan does."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_found_iff_the_scan_finds_and_derived_rows_are_the_answer(self, data):
        cache = QueryResultCache(max_entries=6)
        indexed = cache._contained_answer_locked

        def checked(namespace, query, system_k, key, memoize=True):
            expected = covering_scan(cache, namespace, query, system_k)
            derived = indexed(namespace, query, system_k, key, memoize=memoize)
            assert (derived is None) == (expected is None)
            if derived is not None:
                _assert_is_the_answer(derived, query, system_k)
            return derived

        cache._contained_answer_locked = checked

        def draw_query(scope):
            # Mostly a narrowing of a covering entry in scope, so that lookups
            # find covers (and near misses on exclusive bounds).
            in_scope = [result for key, result in cache._entries.items() if key[:2] == scope]
            covering = [result for result in in_scope if result.covers_query]
            stored = [result.query for result in covering or in_scope]
            within = None
            if stored and data.draw(st.integers(0, 3)):
                within = data.draw(st.sampled_from(stored))
            return data.draw(_queries(within))

        for _ in range(data.draw(st.integers(5, 20))):
            kind = data.draw(
                st.sampled_from(
                    ["store"] * 4 + ["probe"] * 3
                    + ["fetch", "fetch_many", "delta"]
                )
            )
            namespace, k = data.draw(st.sampled_from([("ns1", 3)] * 3 + [("ns1", 4), ("ns2", 3)]))
            if kind == "store":
                query = draw_query((namespace, k))
                degraded = data.draw(st.integers(0, 4)) == 0
                cache.store(namespace, query, k, _answer(query, k, degraded))
            elif kind == "probe":
                query = draw_query((namespace, k))
                outcome = cache.probe(namespace, query, k, memoize=data.draw(st.booleans()))
                if outcome is not None:
                    _assert_is_the_answer(outcome[0], query, k)
            elif kind == "fetch":
                query = draw_query((namespace, k))
                result, _ = cache.fetch(namespace, query, k, lambda: _answer(query, k))
                _assert_is_the_answer(result, query, k)
            elif kind == "fetch_many":
                queries = [draw_query((namespace, k)) for _ in range(data.draw(st.integers(1, 4)))]
                outcomes = cache.fetch_many(
                    namespace, queries, k, lambda batch: [_answer(q, k) for q in batch]
                )
                for query, (result, _) in zip(queries, outcomes):
                    _assert_is_the_answer(result, query, k)
            else:
                touched = data.draw(st.sets(st.sampled_from(range(len(CATALOG))), min_size=1, max_size=3))
                rows = [CATALOG[i] for i in sorted(touched)]
                cache.invalidate_delta(namespace, CatalogDelta.from_rows(namespace, "id", rows))
            assert cache.snapshot()["covering_entries"] == covering_count(cache)
