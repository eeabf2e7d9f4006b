"""Tests for the shared query-result cache and the caching wrapper."""

import random
import sys
import threading
import time
from collections import Counter

import pytest

from repro.webdb.cache import FetchStatus, QueryResultCache, default_namespace
from repro.webdb.delta import CatalogDelta
from repro.webdb.interface import Outcome
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery


class _CountingInterface:
    """Delegating shim that counts (and optionally gates) inner searches."""

    def __init__(self, inner, gate=None):
        self._inner = inner
        self._gate = gate
        self._lock = threading.Lock()
        self.calls = 0
        self.name = getattr(inner, "name", "counting")

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
        with self._lock:
            self.calls += 1
        if self._gate is not None:
            self._gate.wait(timeout=5.0)
        return self._inner.search(query)

    def queries_issued(self):
        return self.calls


class TestQueryResultCache:
    def test_miss_then_hit(self, bluenile_db):
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (500.0, 4000.0)})
        result, status = cache.fetch(
            "bluenile", query, bluenile_db.system_k, lambda: bluenile_db.search(query)
        )
        assert status is FetchStatus.MISS
        hit, status = cache.probe("bluenile", query, bluenile_db.system_k)
        assert status is FetchStatus.HIT
        assert hit.outcome is result.outcome
        assert [row["id"] for row in hit.rows] == [row["id"] for row in result.rows]
        assert cache.statistics.misses == 1
        assert cache.statistics.hits == 1

    def test_hit_costs_zero_latency_and_shares_read_only_rows(self, bluenile_db):
        cache = QueryResultCache()
        query = SearchQuery.everything()
        miss, _ = cache.fetch(
            "ns", query, bluenile_db.system_k, lambda: bluenile_db.search(query)
        )
        hit, _ = cache.probe("ns", query, bluenile_db.system_k)
        assert hit.elapsed_seconds == 0.0
        # Every reader shares the stored answer; its rows refuse writes.
        assert cache.probe("ns", query, bluenile_db.system_k)[0] is hit
        assert all(a is b for a, b in zip(hit.rows, miss.rows))
        for row in (miss.rows[0], hit.rows[0]):
            with pytest.raises(TypeError):
                row["price"] = -1.0

    def test_canonical_key_ignores_predicate_order(self, bluenile_db):
        cache = QueryResultCache()
        a = SearchQuery(
            (RangePredicate("price", 0, 5000), RangePredicate("carat", 0.5, 2.0)),
            (InPredicate.of("cut", ["ideal"]),),
        )
        b = SearchQuery(
            (RangePredicate("carat", 0.5, 2.0), RangePredicate("price", 0, 5000)),
            (InPredicate.of("cut", ["ideal"]),),
        )
        cache.fetch("ns", a, bluenile_db.system_k, lambda: bluenile_db.search(a))
        assert cache.probe("ns", b, bluenile_db.system_k) is not None

    def test_namespaces_are_isolated(self, bluenile_db):
        cache = QueryResultCache()
        query = SearchQuery.everything()
        cache.fetch("one", query, bluenile_db.system_k, lambda: bluenile_db.search(query))
        assert cache.probe("two", query, bluenile_db.system_k) is None

    def test_system_k_change_invalidates(self, bluenile_db):
        cache = QueryResultCache()
        query = SearchQuery.everything()
        cache.fetch("ns", query, 10, lambda: bluenile_db.search(query))
        # A different system-k must never see the old entry: the overflow /
        # valid / underflow trichotomy is only meaningful relative to k.
        assert cache.probe("ns", query, 20) is None
        assert cache.probe("ns", query, 10) is not None

    def test_lru_eviction(self, bluenile_db):
        cache = QueryResultCache(max_entries=2)
        queries = [
            SearchQuery.build(ranges={"price": (0.0, 1000.0 + i)}) for i in range(3)
        ]
        for query in queries:
            cache.fetch(
                "ns", query, bluenile_db.system_k, lambda q=query: bluenile_db.search(q)
            )
        assert len(cache) == 2
        assert cache.statistics.evictions == 1
        # The oldest entry was evicted; the two youngest survive.
        assert cache.probe("ns", queries[0], bluenile_db.system_k) is None
        assert cache.probe("ns", queries[1], bluenile_db.system_k) is not None
        assert cache.probe("ns", queries[2], bluenile_db.system_k) is not None

    def test_lru_touch_on_hit(self, bluenile_db):
        cache = QueryResultCache(max_entries=2)
        q0 = SearchQuery.build(ranges={"price": (0.0, 100.0)})
        q1 = SearchQuery.build(ranges={"price": (0.0, 200.0)})
        q2 = SearchQuery.build(ranges={"price": (0.0, 300.0)})
        for query in (q0, q1):
            cache.fetch(
                "ns", query, bluenile_db.system_k, lambda q=query: bluenile_db.search(q)
            )
        cache.probe("ns", q0, bluenile_db.system_k)  # touch q0: q1 becomes LRU
        cache.fetch("ns", q2, bluenile_db.system_k, lambda: bluenile_db.search(q2))
        assert cache.probe("ns", q1, bluenile_db.system_k) is None
        assert cache.probe("ns", q0, bluenile_db.system_k) is not None

    def test_compute_error_does_not_poison_key(self, bluenile_db):
        cache = QueryResultCache()
        query = SearchQuery.everything()

        def boom():
            raise RuntimeError("remote down")

        with pytest.raises(RuntimeError):
            cache.fetch("ns", query, bluenile_db.system_k, boom)
        result, status = cache.fetch(
            "ns", query, bluenile_db.system_k, lambda: bluenile_db.search(query)
        )
        assert status is FetchStatus.MISS
        assert result.outcome is Outcome.OVERFLOW

    def test_coalescing_under_concurrency(self, bluenile_db):
        """Many threads missing on one key issue exactly one remote query."""
        gate = threading.Event()
        counting = _CountingInterface(bluenile_db, gate=gate)
        cache = QueryResultCache()
        query = SearchQuery.build(ranges={"price": (100.0, 9000.0)})
        outcomes = []
        outcomes_lock = threading.Lock()

        def worker():
            result, status = cache.fetch(
                "ns", query, counting.system_k, lambda: counting.search(query)
            )
            with outcomes_lock:
                outcomes.append((len(result.rows), status))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Let every thread reach the cache before the owner's query completes.
        deadline = time.monotonic() + 5.0
        while counting.calls == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert counting.calls == 1
        assert len(outcomes) == 8
        assert len({rows for rows, _ in outcomes}) == 1
        statuses = [status for _, status in outcomes]
        assert statuses.count(FetchStatus.MISS) == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.coalesced + cache.statistics.hits == 7

    def test_each_key_is_answered_once_under_switch_pressure(self, bluenile_db):
        """16 threads on a 1 µs switch interval fetch each round's keys in
        their own order, and each key's first attempt fails: a flight's
        failure reaches only its own waiters, who contend again, so every
        key is answered exactly once and every caller but a failed owner
        gets that answer."""
        cache = QueryResultCache()
        k = bluenile_db.system_k
        rounds = [
            [SearchQuery.build(ranges={"price": (100.0 + r, 1000.0 + i)}) for i in range(4)]
            for r in range(25)
        ]
        lock = threading.Lock()
        answered, failed = Counter(), Counter()
        wrong = []

        def compute_many(batch):
            results = []
            for query in batch:
                key = query.canonical_key()
                with lock:
                    first = not failed[key]
                    (failed if first else answered)[key] += 1
                results.append(RuntimeError("first attempt") if first else bluenile_db.search(query))
            return results

        def worker(seed):
            rng = random.Random(seed)
            for keys in rounds:
                batch = rng.sample(keys, len(keys))
                for query, (answer, status) in zip(
                    batch, cache.fetch_many("ns", batch, k, compute_many)
                ):
                    if isinstance(answer, RuntimeError):
                        continue
                    if answer.keys() != bluenile_db.search(query).keys():
                        wrong.append((query, status))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        everything = {query.canonical_key() for keys in rounds for query in keys}
        assert set(answered) == set(failed) == everything
        assert set(answered.values()) == set(failed.values()) == {1}
        assert not wrong
        assert not cache.snapshot()["in_flight"]

    def test_snapshot_shape(self):
        snapshot = QueryResultCache(max_entries=10).snapshot()
        assert snapshot["entries"] == 0
        assert snapshot["max_entries"] == 10
        assert snapshot["hit_rate"] == 0.0

    def test_stale_serves_stays_at_zero(self, bluenile_db):
        # Nothing serves a retired answer; the key stays for the request-path
        # benchmark's span reader.
        cache = _banded_cache(bluenile_db)
        cache.fetch("a", BANDS[0], bluenile_db.system_k, lambda: bluenile_db.search(BANDS[0]))
        cache.invalidate_delta("a", _repricing("a", 600.0))
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 1 and snapshot["delta_retired"] == 1
        assert snapshot["stale_serves"] == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QueryResultCache(max_entries=0)


#: Disjoint price bands, so no band answers another by containment.
BANDS = [
    SearchQuery.build(ranges={"price": (low, low + 500.0)})
    for low in (500.0, 1500.0, 2500.0, 3500.0)
]


def _banded_cache(db, namespaces=("a", "b")):
    cache = QueryResultCache()
    for namespace in namespaces:
        for query in BANDS:
            cache.fetch(namespace, query, db.system_k, lambda query=query: db.search(query))
    return cache


def _repricing(namespace, price):
    return CatalogDelta.from_rows(namespace, "id", [{"id": "x", "price": price}], upserts=1)


class TestDeltaRetirement:
    """``invalidate_delta`` retires the entries of one namespace a delta can
    match and returns how many."""

    def test_an_empty_delta_retires_and_logs_nothing(self, bluenile_db):
        cache = _banded_cache(bluenile_db)
        sequence = cache.changes("a").sequence
        assert cache.invalidate_delta("a", CatalogDelta(namespace="a")) == 0
        assert len(cache) == 2 * len(BANDS)
        assert cache.changes("a").sequence == sequence

    @pytest.mark.parametrize("price", [600.0, 1999.0, 3600.0, 9000.0])
    def test_returns_the_number_of_entries_it_retired(self, bluenile_db, price):
        cache = _banded_cache(bluenile_db)
        delta = _repricing("a", price)
        expected = sum(delta.may_match_query(query) for query in BANDS)
        before = len(cache)
        assert cache.invalidate_delta("a", delta) == expected == before - len(cache)
        assert cache.statistics.snapshot()["delta_retired"] == expected
        for query in BANDS:
            assert cache.probe("b", query, bluenile_db.system_k) is not None
            kept = cache.probe("a", query, bluenile_db.system_k) is not None
            assert kept is not delta.may_match_query(query)


class TestAbsorb:
    """``absorb`` stores another cache's entries as a fetched miss is
    stored: an entry that a delta logged since the read can match is
    dropped."""

    def test_absorbed_entries_are_hits_at_no_cost(self, bluenile_db):
        cache = QueryResultCache()
        cache.absorb(_banded_cache(bluenile_db, namespaces=("a",)), cache.changes("a").sequence)
        assert len(cache) == len(BANDS)
        for query in BANDS:
            answer, status = cache.probe("a", query, bluenile_db.system_k)
            assert status is FetchStatus.HIT and answer.elapsed_seconds == 0.0
            assert answer.keys() == bluenile_db.search(query).keys()

    @pytest.mark.parametrize("price", [600.0, 9000.0])
    def test_a_delta_logged_since_the_read_drops_what_it_can_match(self, bluenile_db, price):
        read = _banded_cache(bluenile_db, namespaces=("a",))
        cache = QueryResultCache()
        since = cache.changes("a").sequence
        delta = _repricing("a", price)
        cache.invalidate_delta("a", delta)
        cache.absorb(read, since)
        for query in BANDS:
            stored = cache.probe("a", query, bluenile_db.system_k) is not None
            assert stored is not delta.may_match_query(query)


class TestDefaultNamespace:
    def test_namespace_defaults_to_interface_name(self, bluenile_db):
        assert default_namespace(bluenile_db) == bluenile_db.name

    def test_generic_name_falls_back_to_identity(self, bluenile_db):
        # Two default-named databases sharing a cache must not share entries.
        generic = _CountingInterface(bluenile_db)
        generic.name = "webdb"
        assert default_namespace(generic) == f"iface-{id(generic):x}"
