"""Tests for the shared rerank feed: leader/follower Get-Next sharing."""

import random
import threading

import pytest

from repro.config import RerankConfig
from repro.core.feed import FeedProducer, RerankFeedStore, ranking_canonical_key
from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    UserRankingFunction,
)
from repro.core.getnext import GetNextStream
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, FeedBackedStream, QueryReranker
from repro.core.session import Session
from repro.core.stats import RerankStatistics
from repro.webdb.cache import QueryResultCache
from repro.webdb.counters import QueryBudget
from repro.webdb.delta import CatalogDelta
from repro.webdb.query import SearchQuery, freeze_row
from tests.conftest import draw_request, page_through


RANKING = SingleAttributeRanking("carat", ascending=False)
QUERY = SearchQuery.build(ranges={"price": (500.0, 9000.0)})


def _ids(rows):
    return [row["id"] for row in rows]


# --------------------------------------------------------------------------- #
# Canonical ranking keys
# --------------------------------------------------------------------------- #
class TestRankingCanonicalKeys:
    def test_single_attribute_key(self):
        assert ranking_canonical_key(RANKING) == ("1d", "carat", False)

    def test_linear_key_is_order_insensitive(self):
        a = LinearRankingFunction({"price": 1.0, "carat": -0.5})
        b = LinearRankingFunction({"carat": -0.5, "price": 1.0})
        assert ranking_canonical_key(a) == ranking_canonical_key(b)

    def test_normalizer_bounds_are_part_of_the_identity(self):
        bounds_a = MinMaxNormalizer({"price": (0.0, 100.0), "carat": (0.0, 5.0)})
        bounds_b = MinMaxNormalizer({"price": (0.0, 200.0), "carat": (0.0, 5.0)})
        a = LinearRankingFunction({"price": 1.0, "carat": -0.5}, normalizer=bounds_a)
        b = LinearRankingFunction({"price": 1.0, "carat": -0.5}, normalizer=bounds_b)
        assert ranking_canonical_key(a) != ranking_canonical_key(b)

    def test_uncanonicalizable_ranking_returns_none(self):
        class Opaque(UserRankingFunction):
            @property
            def attributes(self):
                return ("price",)

            def score(self, row):
                return float(row["price"])

            def weight(self, attribute):
                return 1.0

            def describe(self):
                return "opaque"

        assert ranking_canonical_key(Opaque()) is None


# --------------------------------------------------------------------------- #
# Feed on vs feed off, over drawn requests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [1, 3, 11, 2018, 20180416])
def test_feed_on_off_differential(seed, bluenile_db, zillow_db):
    """Replay is replay, not approximation: three sessions of a drawn
    (source, ranking, algorithm, filter) request page identically with the
    feed on and off, and the feed's followers issue no external query."""
    rng = random.Random(seed)
    database = rng.choice([bluenile_db, zillow_db])
    request = draw_request(rng, database.schema)
    shared = QueryReranker(database, config=RerankConfig())
    control = QueryReranker(database, config=RerankConfig(enable_rerank_feed=False))
    try:
        fed = [page_through(shared, request) for _ in range(3)]
        unfed = [page_through(control, request) for _ in range(3)]
        store = shared.feed_store.snapshot()
    finally:
        shared.close()
        control.close()
    assert [pages for pages, _ in fed] == [pages for pages, _ in unfed]
    assert fed[0][0][0], "the drawn window matches nothing"
    assert [queries for _, queries in fed[1:]] == [0, 0]
    assert (store["feeds"], store["followers"]) == (1, 2)


# --------------------------------------------------------------------------- #
# Leader/follower protocol through the reranker
# --------------------------------------------------------------------------- #
class TestLeaderFollower:
    def test_followers_replay_at_zero_external_queries(self, bluenile_db):
        shared = QueryReranker(bluenile_db, config=RerankConfig())
        control = QueryReranker(
            bluenile_db, config=RerankConfig(enable_rerank_feed=False)
        )

        leader = shared.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        leader_rows = leader.next_page(8)
        assert leader.statistics.external_queries > 0
        assert leader.statistics.feed_leader_advances > 0
        assert leader.statistics.feed_hits == 0

        follower = shared.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        follower_rows = follower.next_page(8)
        assert follower.statistics.external_queries == 0
        assert follower.statistics.feed_hits == 8
        assert follower.statistics.feed_replayed_tuples == 8
        assert _ids(follower_rows) == _ids(leader_rows)

        expected = control.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        assert _ids(expected.next_page(8)) == _ids(leader_rows)

    def test_leader_statistics_match_feed_disabled_run(self, bluenile_db):
        shared = QueryReranker(bluenile_db, config=RerankConfig())
        control = QueryReranker(
            bluenile_db, config=RerankConfig(enable_rerank_feed=False)
        )
        led = shared.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        led.next_page(6)
        plain = control.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        plain.next_page(6)
        # The absorbed producer delta must equal what a private stream pays.
        assert led.statistics.external_queries == plain.statistics.external_queries
        assert led.statistics.tuples_returned == plain.statistics.tuples_returned
        assert led.statistics.iterations == plain.statistics.iterations

    def test_follower_promoted_to_leader_past_verified_prefix(self, bluenile_db):
        reranker = QueryReranker(bluenile_db, config=RerankConfig())
        first = reranker.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        first.next_page(3)

        second = reranker.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        assert isinstance(second, FeedBackedStream)
        second_rows = second.next_page(6)
        assert len(second_rows) == 6
        # Positions 0..2 replayed, 3..5 led: the stream was promoted.
        assert second.led
        assert second.statistics.feed_replayed_tuples == 3
        assert second.statistics.feed_leader_advances == 3
        assert second.statistics.external_queries > 0

        # The original leader replays the extension for free.
        more = first.next_page(3)
        assert first.statistics.feed_replayed_tuples == 3
        assert _ids(first.returned_so_far) == _ids(second_rows)
        assert len(more) == 3

    def test_concurrent_sessions_coalesce_onto_one_algorithm_run(self, bluenile_db):
        reranker = QueryReranker(bluenile_db, config=RerankConfig())
        control = QueryReranker(
            bluenile_db, config=RerankConfig(enable_rerank_feed=False)
        )
        expected_stream = control.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        expected = _ids(expected_stream.next_page(10))
        expected_cost = expected_stream.statistics.external_queries

        barrier = threading.Barrier(4)
        results = {}
        errors = []

        def run(worker: int) -> None:
            try:
                stream = reranker.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
                barrier.wait()
                results[worker] = (
                    _ids(stream.next_page(10)),
                    stream.statistics.external_queries,
                )
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for ids, _cost in results.values():
            assert ids == expected
        # The algorithm ran once: the combined external cost of all four
        # racing sessions equals one private run's cost.
        assert sum(cost for _, cost in results.values()) == expected_cost
        store = reranker.feed_store
        assert store is not None
        snapshot = store.snapshot()
        assert snapshot["feeds"] == 1
        assert snapshot["leader_advances"] == expected_stream.statistics.get_next_calls

    def test_exhausted_feed_replays_exhaustion(self, bluenile_db):
        reranker = QueryReranker(bluenile_db, config=RerankConfig())
        narrow = SearchQuery.build(ranges={"carat": (0.3, 0.45)})
        first = reranker.rerank(narrow, RANKING, algorithm=Algorithm.RERANK)
        all_rows = list(first)
        assert first.exhausted

        second = reranker.rerank(narrow, RANKING, algorithm=Algorithm.RERANK)
        replayed = list(second)
        assert _ids(replayed) == _ids(all_rows)
        assert second.exhausted
        assert second.statistics.external_queries == 0


# --------------------------------------------------------------------------- #
# Feed bypass
# --------------------------------------------------------------------------- #
class TestFeedBypass:
    def test_budgeted_requests_bypass_the_feed(self, bluenile_db):
        reranker = QueryReranker(bluenile_db, config=RerankConfig())
        stream = reranker.rerank(
            QUERY, RANKING, algorithm=Algorithm.RERANK, budget=QueryBudget(10_000)
        )
        assert not isinstance(stream, FeedBackedStream)
        assert type(stream) is GetNextStream

    def test_uncanonicalizable_ranking_bypasses_the_feed(self, bluenile_db):
        class Opaque(SingleAttributeRanking):
            def canonical_key(self):
                raise NotImplementedError

        reranker = QueryReranker(bluenile_db, config=RerankConfig())
        stream = reranker.rerank(QUERY, Opaque("carat"), algorithm=Algorithm.RERANK)
        assert not isinstance(stream, FeedBackedStream)
        assert stream.next_page(3)

    def test_disabled_feed_produces_plain_streams(self, bluenile_db):
        reranker = QueryReranker(
            bluenile_db, config=RerankConfig(enable_rerank_feed=False)
        )
        assert reranker.feed_store is None
        stream = reranker.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        assert type(stream) is GetNextStream


# --------------------------------------------------------------------------- #
# Per-user dedup over replayed rows
# --------------------------------------------------------------------------- #
class TestReplayDedup:
    def test_replay_skips_rows_already_emitted_to_the_session(self, bluenile_db):
        shared = QueryReranker(bluenile_db, config=RerankConfig())
        control = QueryReranker(
            bluenile_db, config=RerankConfig(enable_rerank_feed=False)
        )

        def second_request_rows(reranker):
            session = Session(session_id="dedup")
            first = reranker.rerank(
                QUERY, RANKING, algorithm=Algorithm.RERANK, session=session
            )
            first_rows = first.next_page(4)
            # Same session, same request, *no* reset: the live algorithms
            # never re-emit tuples the session was already handed, and the
            # feed replay must behave identically.
            second = reranker.rerank(
                QUERY, RANKING, algorithm=Algorithm.RERANK, session=session
            )
            return first_rows, second.next_page(4)

        shared_first, shared_second = second_request_rows(shared)
        control_first, control_second = second_request_rows(control)
        assert _ids(shared_first) == _ids(control_first)
        assert _ids(shared_second) == _ids(control_second)
        assert not set(_ids(shared_first)) & set(_ids(shared_second))

    def test_reset_session_sees_the_full_stream_again(self, bluenile_db):
        reranker = QueryReranker(bluenile_db, config=RerankConfig())
        session = Session(session_id="reset")
        first = reranker.rerank(
            QUERY, RANKING, algorithm=Algorithm.RERANK, session=session
        )
        first_rows = first.next_page(4)
        session.reset_for_new_request()
        second = reranker.rerank(
            QUERY, RANKING, algorithm=Algorithm.RERANK, session=session
        )
        assert _ids(second.next_page(4)) == _ids(first_rows)


# --------------------------------------------------------------------------- #
# Retirement: closing the store, and deltas it cannot match
# --------------------------------------------------------------------------- #
class TestFeedRetirement:
    def test_closing_the_store_retires_feeds(self, bluenile_db):
        reranker = QueryReranker(bluenile_db, config=RerankConfig())
        stream = reranker.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        stream.next_page(3)
        store = reranker.feed_store
        assert store is not None and len(store) == 1
        first_feed = stream.feed

        assert store.close() == 1
        assert len(store) == 0
        assert first_feed.stale

        fresh = reranker.rerank(QUERY, RANKING, algorithm=Algorithm.RERANK)
        assert fresh.feed is not first_feed
        assert fresh.feed.depth == 0
        # The rebuilt feed re-pays the algorithm from the live database.
        fresh.next_page(3)
        assert fresh.statistics.feed_leader_advances == 3

    def test_closing_the_store_twice_retires_nothing_more(self):
        store = RerankFeedStore()
        factory = _ListProducerFactory([{"id": "a"}])
        feeds = [
            store.attach(namespace, QUERY, RANKING, "rerank", 10, "id", factory)
            for namespace in ("ns", "other")
        ]
        assert store.close() == 2
        assert all(feed.stale for feed in feeds) and len(store) == 0
        assert store.close() == 0
        # A closed store still serves: the next attach builds a new feed.
        fresh = store.attach("ns", QUERY, RANKING, "rerank", 10, "id", factory)
        assert fresh not in feeds and not fresh.stale

    def test_a_delta_that_cannot_match_keeps_the_feed(self):
        cache = QueryResultCache()
        store = RerankFeedStore()
        factory = _ListProducerFactory([{"id": "a"}])

        def attach():
            return store.attach("ns", QUERY, RANKING, "rerank", 10, "id", factory)

        feed = attach()
        delta = CatalogDelta.from_rows("ns", "id", [{"id": "x", "price": -5.0}])
        # Whichever layer logs it, a delta that cannot match the feed's query
        # retires nothing.
        assert cache.invalidate_delta("ns", delta) == 0
        assert store.invalidate_delta("ns", delta) == 0
        assert not feed.stale and attach() is feed


# --------------------------------------------------------------------------- #
# Store bookkeeping: LRU, TTL, retirement
# --------------------------------------------------------------------------- #
class _ListProducerFactory:
    """Factory building producers that emit a fixed row list; ``gate``, when
    given, is called inside every advance (the leader section)."""

    def __init__(self, rows, gate=None):
        self._rows = rows
        self._gate = gate

    def __call__(self) -> FeedProducer:
        rows = map(freeze_row, self._rows)
        gate = self._gate

        class _Algorithm:
            def next(self_inner):
                if gate is not None:
                    gate()
                return next(rows, None)

        return FeedProducer(_Algorithm(), Session(session_id="fake"))


class TestFeedStore:
    ROWS = [{"id": i, "carat": float(i)} for i in range(5)]

    def _attach(self, store, query, factory=None):
        return store.attach(
            "ns",
            query,
            RANKING,
            "rerank",
            10,
            "id",
            factory or _ListProducerFactory(self.ROWS),
        )

    def test_lru_eviction_retires_oldest_feed(self):
        store = RerankFeedStore(max_feeds=2)
        queries = [
            SearchQuery.build(ranges={"price": (0.0, float(100 + i))})
            for i in range(3)
        ]
        feeds = [self._attach(store, query) for query in queries]
        assert len(store) == 2
        snapshot = store.snapshot()
        assert snapshot["evictions"] == 1
        assert feeds[0].stale  # retired feeds never re-enter the store
        # Re-attaching the evicted request builds a fresh feed.
        again = self._attach(store, queries[0])
        assert again is not feeds[0]

    def test_verified_tuples_and_work_count_only_while_the_store_holds_the_feed(self):
        """The store's counters follow its live feeds: a retired feed's prefix
        leaves ``verified_tuples``, and what its streams still do on it is
        not counted (as when the store folded a feed's counters on retiring
        it)."""
        store = RerankFeedStore(max_feeds=2)
        first = self._attach(store, SearchQuery.build(ranges={"price": (0.0, 100.0)}))
        second = self._attach(store, SearchQuery.build(ranges={"price": (0.0, 200.0)}))
        for position in range(3):
            first.row_at(position)
        second.row_at(0)
        first.row_at(0)
        snapshot = store.snapshot()
        assert (snapshot["verified_tuples"], snapshot["leader_advances"]) == (4, 4)
        assert snapshot["replayed_tuples"] == 1
        self._attach(store, SearchQuery.build(ranges={"price": (0.0, 300.0)}))  # evicts first
        first.row_at(0)
        first.row_at(3)
        first.note_promotion()
        snapshot = store.snapshot()
        assert (snapshot["feeds"], snapshot["evictions"]) == (2, 1)
        assert snapshot["verified_tuples"] == 1
        assert (snapshot["replayed_tuples"], snapshot["leader_advances"]) == (1, 4)
        assert snapshot["promotions"] == snapshot["leaders"] == 0

    def test_feed_retired_while_leading_serves_its_streams_only(self):
        """Retirement — here racing a leader's advance — is a mark, not a
        teardown: the feed keeps replaying and advancing for the streams
        that hold it, and is never handed to a new session."""
        store = RerankFeedStore()
        leading, retired = threading.Event(), threading.Event()

        def gate():
            leading.set()
            assert retired.wait(5.0)

        query = SearchQuery.build(ranges={"price": (0.0, 100.0)})
        feed = self._attach(store, query, _ListProducerFactory(self.ROWS, gate))
        led = []
        leader = threading.Thread(
            target=lambda: led.append(feed.row_at(0, statistics=RerankStatistics()))
        )
        leader.start()
        assert leading.wait(5.0)
        assert store.close() == 1  # retires the feed mid-advance
        retired.set()
        leader.join(timeout=5.0)
        assert not leader.is_alive()

        assert [(row["id"], replayed) for row, replayed in led] == [(0, False)]
        assert feed.stale
        # The streams that hold the retired feed go on: replay, then lead.
        assert feed.row_at(0) == (led[0][0], True)
        row, replayed = feed.row_at(1, statistics=RerankStatistics())
        assert row["id"] == 1 and not replayed
        # A new session gets a fresh feed, never the retired one.
        fresh = self._attach(store, query)
        assert fresh is not feed and fresh.depth == 0 and not fresh.stale

    @pytest.mark.parametrize("absorbing", [False, True], ids=["bare", "absorbing"])
    def test_degraded_advance_poisons_the_feed(self, absorbing):
        """An advance that served degraded data hands the leader its row, but
        the feed is never handed to a new session again — whether or not the
        call has a panel to absorb the advance's work into."""
        store = RerankFeedStore()
        producers, degrade = [], threading.Event()

        def gate():
            producers[0].statistics.record("retried_queries")
            if degrade.is_set():
                producers[0].statistics.record("degraded_results")

        def factory():
            producers.append(_ListProducerFactory(self.ROWS, gate)())
            return producers[0]

        query = SearchQuery.build(ranges={"price": (0.0, 100.0)})
        feed = self._attach(store, query, factory)
        stats = RerankStatistics() if absorbing else None
        assert feed.row_at(0, statistics=stats)[1] is False
        assert not feed.stale and self._attach(store, query) is feed
        degrade.set()
        row, replayed = feed.row_at(1, statistics=stats)
        assert row["id"] == 1 and not replayed
        assert feed.stale
        if absorbing:
            assert stats.read("retried_queries", "degraded_results") == (2, 1)
        assert self._attach(store, query) is not feed

    def test_row_at_validates_and_counts(self):
        store = RerankFeedStore()
        query = SearchQuery.build(ranges={"price": (0.0, 100.0)})
        feed = self._attach(store, query)
        stats = RerankStatistics()
        served = []
        while True:
            row, _ = feed.row_at(len(served), statistics=stats)
            if row is None:
                break
            served.append(row)
        assert [row["id"] for row in served] == [0, 1, 2, 3, 4]
        assert feed.exhausted
        assert feed.depth == 5
        # Replays return the same immutable objects.
        replay, replayed = feed.row_at(2, statistics=stats)
        assert replayed and replay is served[2]
        with pytest.raises(TypeError):
            replay["id"] = 99
