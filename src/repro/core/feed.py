"""Shared rerank feed cache: cross-session Get-Next sharing.

The QR2 UI funnels users toward a list of *popular functions*, so many
sessions ask for the identical ``(filter query, ranking, algorithm)`` stream.
PRs 1-4 made the *external queries* of such repeats nearly free (result cache,
containment, dense-region index), but every session still re-ran the whole
Get-Next algorithm — region splits, TA rounds, candidate scoring — from
scratch.  This module amortizes the algorithm itself:

* a :class:`RerankFeed` materializes, per canonical request key, the **verified
  emission prefix** of a Get-Next stream: the exact rows a fresh session would
  be served, in order, produced once by a private *producer* (its own
  :class:`~repro.core.session.Session` and
  :class:`~repro.core.parallel.QueryEngine` driving the real algorithm);
* the first stream that needs a position beyond the verified prefix is
  promoted to **leader** for that advance: it drives the producer under the
  per-feed advance latch and appends the emitted tuple to the prefix;
* every other stream is a **follower**: it replays the verified prefix at zero
  external queries and zero algorithm work (the classic thundering-herd
  coalescing of the PR 1 result cache, one layer up — whole reranked streams
  instead of single query answers).

The prefix holds the producer's read-only rows themselves and hands them to
followers by reference, never copied; per-user dedup against the consumer
session's emitted history still happens in the stream layer
(:class:`~repro.core.reranker.FeedBackedStream`).

**Invalidation** is by catalog delta only.
:meth:`RerankFeedStore.invalidate_delta` retires only a feed whose filter
query some touched version matches, and of those only a feed that is
exhausted, stale or mid-advance, or whose last verified row a matching
version ranks at or before.  A surviving feed keeps its prefix, and its
producer continues from the frontier: the producer's own change watch voids
what it proved before the change.  A retired feed is *stale*: it keeps
serving the streams already attached to it but never re-enters the store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.session import Session
from repro.core.stats import RerankStatistics
from repro.webdb.counters import Counters
from repro.webdb.delta import CatalogDelta
from repro.webdb.query import Row, SearchQuery

#: ``(namespace, system_k, algorithm, canonical query, canonical ranking)`` —
#: the full identity of one shareable Get-Next stream.
FeedKey = Tuple[str, int, str, Tuple, Tuple]


def ranking_canonical_key(ranking) -> Optional[Tuple]:
    """Hashable canonical identity of a user ranking function, or ``None``
    when the function cannot be canonicalized (custom subclasses without a
    ``canonical_key``) — such requests bypass the feed entirely."""
    method = getattr(ranking, "canonical_key", None)
    if method is None:
        return None
    try:
        return method()
    except NotImplementedError:
        return None


class FeedProducer:
    """The private driver of one feed: the real algorithm bound to a
    feed-internal session (and an engine of its own), so no consumer's
    per-user state (seen tuples, emission history) can perturb the canonical
    emission order."""

    def __init__(self, algorithm, session: Session) -> None:
        self.algorithm = algorithm
        self.session = session

    @property
    def statistics(self) -> RerankStatistics:
        """The producer session's statistics (algorithm-work accounting)."""
        return self.session.statistics


@dataclass
class FeedStoreCounters(Counters):
    """A feed store's counters: feeds created, attaches that followed an
    existing feed, feeds retired by a delta or evicted, the replay and
    leader work its feeds did while it held them, and the verified prefix
    length across its live feeds (a gauge: a retired feed's prefix leaves
    it)."""

    created: int = 0
    followers: int = 0
    delta_invalidations: int = 0
    evictions: int = 0
    replayed_tuples: int = 0
    leader_advances: int = 0
    promotions: int = 0
    verified_tuples: int = 0

    DERIVED_AFTER = {"promotions": "leaders"}

    @property
    def leaders(self) -> int:
        """Streams that performed at least one real advance; a stream that
        attached to an already-deep feed and never outran the prefix stays a
        pure follower even if it created nothing."""
        return self.promotions


class RerankFeed:
    """One shared Get-Next stream: the verified emission prefix plus the
    lazily created producer that extends it.  Until it is retired, its
    replay, leader and prefix work is counted straight into the owning
    store's ``counters``."""

    def __init__(
        self,
        key: FeedKey,
        key_column: str,
        factory: Callable[[], FeedProducer],
        counters: FeedStoreCounters,
        query: SearchQuery,
        ranking,
    ) -> None:
        self.key = key
        self.key_column = key_column
        #: The feed's filter query and ranking, kept for delta invalidation:
        #: the prefix changes only when a touched version matching the query
        #: ranks at or before its last row.
        self.query = query
        self.ranking = ranking
        self._factory = factory
        self._counters = counters
        self._condition = threading.Condition()
        self._rows: List[Row] = []
        self._producer: Optional[FeedProducer] = None
        self._advancing = False
        self._exhausted = False
        self._stale = False
        #: Still in the store: its prefix counts toward ``verified_tuples``.
        self._held = True

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Length of the verified emission prefix."""
        with self._condition:
            return len(self._rows)

    @property
    def exhausted(self) -> bool:
        """True once the producer has emitted its last tuple."""
        with self._condition:
            return self._exhausted

    @property
    def stale(self) -> bool:
        """True once the feed was retired or an advance served degraded data;
        it keeps serving already-attached streams but can never re-enter the
        store."""
        with self._condition:
            return self._stale

    def _count_locked(self, name: str) -> None:
        """Count one event into the store's counters while the store holds
        this feed: a retired feed's later work stays out of the panel, as its
        prefix does."""
        if self._held:
            self._counters.record(name)

    def retire(self) -> None:
        """Mark the feed as removed from the store (evicted, retired by a
        delta or closed): it is stale from here on, so it can never re-enter
        the store, and its prefix leaves the store's ``verified_tuples``.
        Already-attached streams keep replaying and advancing it."""
        with self._condition:
            self._stale = True
            self._held = False
            self._counters.record("verified_tuples", -len(self._rows))

    def survives(self, delta: CatalogDelta) -> bool:
        """True when ``delta`` cannot change the verified prefix: no touched
        version matches the feed's query or, when one does, the feed is
        idle, not exhausted, not stale, and every matching version (or the
        delta's best corner, which none beats) scores past its last row by
        more than 1e-9.  Asked only after the change is logged, so an
        advance that starts later re-proves through the producer's change
        watch."""
        matching = delta.matching_versions(self.query)
        first = next(matching, None)
        if first is None:
            return True
        with self._condition:
            if self._exhausted or self._stale or self._advancing:
                return False
            if not self._rows:
                return True
            last = self.ranking.score(self._rows[-1]) + 1e-9
        score = self.ranking.score
        corner = delta.best_corner(self.ranking)
        if corner is not None and score(corner) > last:
            return True
        return all(score(version) > last for version in chain((first,), matching))

    # ------------------------------------------------------------------ #
    # The Get-Next sharing protocol
    # ------------------------------------------------------------------ #
    def row_at(
        self,
        position: int,
        statistics: Optional[RerankStatistics] = None,
    ) -> Tuple[Optional[Row], bool]:
        """Return the row at ``position`` of the canonical emission order.

        Returns ``(row, replayed)``: ``replayed`` is True when the verified
        prefix (or the exhaustion mark) already covered the position — zero
        external queries, zero algorithm work.  Otherwise the calling stream
        was the leader for this advance: it drove the real algorithm one
        Get-Next step, and the producer's statistics delta (external queries,
        simulated latency, cache and index hits) was absorbed into
        ``statistics`` so the leader's panel reflects the work it paid for.

        ``row`` is ``None`` once the stream is exhausted at ``position``.
        Concurrent callers needing the same unverified position coalesce:
        exactly one leads, the rest wait on the advance latch and then replay.
        """
        with self._condition:
            while True:
                if position < len(self._rows):
                    self._count_locked("replayed_tuples")
                    return self._rows[position], True
                if self._exhausted:
                    return None, True
                if not self._advancing:
                    self._advancing = True
                    break
                self._condition.wait()
            if self._producer is None:
                try:
                    self._producer = self._factory()
                except BaseException:
                    self._advancing = False
                    self._condition.notify_all()
                    raise
            producer = self._producer
            self._count_locked("leader_advances")

        # Leader section: real algorithm work, outside the feed mutex so
        # followers replaying earlier positions are never blocked behind it.
        row: Optional[Row] = None
        completed = False
        mark = producer.statistics.checkpoint()
        try:
            row = producer.algorithm.next()
            completed = True
        finally:
            # Absorbing the advance's work also tells whether it served
            # degraded data; a call with no panel still needs that verdict.
            sink = statistics if statistics is not None else RerankStatistics()
            degraded_advance = sink.absorb_since(producer.statistics, mark)
            with self._condition:
                self._advancing = False
                if completed:
                    if row is None:
                        self._exhausted = True
                    else:
                        if degraded_advance:
                            # The advance ran against a partially reachable
                            # source, so this row's place in the canonical
                            # order is not certified.  The leader still gets
                            # its row, but the feed is poisoned: the store
                            # stops handing it to new sessions and a healthy
                            # feed is rebuilt fresh.
                            self._stale = True
                        self._rows.append(row)
                        self._count_locked("verified_tuples")
                self._condition.notify_all()
        if row is None:
            return None, False
        with self._condition:
            served = self._rows[position] if position < len(self._rows) else None
        return served, False

    def note_promotion(self) -> None:
        """Record that one attached stream performed its first leader advance
        (the follower-to-leader promotion counter of the statistics panel)."""
        with self._condition:
            self._count_locked("promotions")



class RerankFeedStore:
    """LRU store of :class:`RerankFeed` objects for one source namespace
    family, retired by the catalog deltas that reach their prefixes.

    Parameters
    ----------
    max_feeds:
        LRU capacity; the least-recently-attached feed is retired when an
        attach would exceed it.
    """

    def __init__(self, max_feeds: int = 256) -> None:
        if max_feeds <= 0:
            raise ValueError("max_feeds must be positive")
        self._max_feeds = max_feeds
        self._lock = threading.Lock()
        self._feeds: "OrderedDict[FeedKey, RerankFeed]" = OrderedDict()
        self._counters = FeedStoreCounters()

    # ------------------------------------------------------------------ #
    @property
    def max_feeds(self) -> int:
        """The LRU capacity."""
        return self._max_feeds

    def __len__(self) -> int:
        with self._lock:
            return len(self._feeds)

    # ------------------------------------------------------------------ #
    def attach(
        self,
        namespace: str,
        query: SearchQuery,
        ranking,
        algorithm: str,
        system_k: int,
        key_column: str,
        factory: Callable[[], FeedProducer],
    ) -> Optional[RerankFeed]:
        """Get-or-create the feed for one canonical request.

        Returns ``None`` when the ranking cannot be canonicalized — the
        caller falls back to a private, unshared stream.  A stored feed a
        degraded advance poisoned is retired and rebuilt fresh.
        """
        ranking_key = ranking_canonical_key(ranking)
        if ranking_key is None:
            return None
        key: FeedKey = (
            namespace,
            system_k,
            algorithm,
            query.canonical_key(),
            ranking_key,
        )
        with self._lock:
            feed = self._feeds.get(key)
            if feed is not None and feed.stale:
                self._retire_locked(key)
                feed = None
            if feed is None:
                feed = RerankFeed(
                    key,
                    key_column,
                    factory,
                    counters=self._counters,
                    query=query,
                    ranking=ranking,
                )
                self._feeds[key] = feed
                self._counters.record("created")
            else:
                self._counters.record("followers")
            self._feeds.move_to_end(key)
            while len(self._feeds) > self._max_feeds:
                oldest = next(iter(self._feeds))
                self._retire_locked(oldest, "evictions")
        return feed

    def close(self) -> int:
        """Retire every feed; returns the number retired.  Closing is not a
        data change, so it logs none: answers in flight still store."""
        with self._lock:
            doomed = list(self._feeds)
            for key in doomed:
                self._retire_locked(key)
        return len(doomed)

    def invalidate_delta(self, namespace: str, delta: CatalogDelta) -> int:
        """Retire the feeds of ``namespace`` whose prefix ``delta`` can
        reach (:meth:`RerankFeed.survives`); returns the number retired.

        Surviving feeds stay attachable and keep their verified prefixes.
        That is sound because a feed's emission order is a pure function of
        the tuples matching its filter query: when every touched version
        that matches it ranks after the last verified row, the prefix is
        still exactly what a fresh session would be served.
        """
        if delta.is_empty:
            return 0
        with self._lock:
            doomed = [
                key
                for key, feed in self._feeds.items()
                if key[0] == namespace and not feed.survives(delta)
            ]
            for key in doomed:
                self._retire_locked(key, "delta_invalidations")
        return len(doomed)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Occupancy plus counters, for the service statistics panel."""
        return {
            "feeds": len(self),
            **self._counters.snapshot(),
            "max_feeds": self._max_feeds,
        }

    # ------------------------------------------------------------------ #
    def _retire_locked(self, key: FeedKey, reason: Optional[str] = None) -> None:
        feed = self._feeds.pop(key, None)
        if feed is None:
            return
        if reason is not None:
            self._counters.record(reason)
        feed.retire()
