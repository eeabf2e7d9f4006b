"""High-level reranking facade.

:class:`QueryReranker` is the public entry point of the library: it owns the
pieces that are shared across requests (the top-k interface, the dense-region
index, the result cache and the rerank feed) and turns a *(filter query,
ranking function, algorithm)* triple into a
:class:`~repro.core.getnext.GetNextStream`.

It also implements the algorithm selection the QR2 system performs: 1D ranking
functions are served by the 1D algorithms, multi-attribute functions by the MD
algorithms, and MD-TA is available as an explicit choice.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import RerankConfig
from repro.core.dense_index import DenseRegionIndex
from repro.core.feed import FeedProducer, RerankFeed, RerankFeedStore
from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    UserRankingFunction,
)
from repro.core.getnext import GetNextStream, Variant
from repro.core.multidim import MultiDimGetNext
from repro.core.onedim import OneDimGetNext
from repro.core.parallel import QueryEngine
from repro.core.session import Session
from repro.core.ta import ThresholdAlgorithmGetNext
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.exceptions import RankingFunctionError
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.cache import QueryResultCache, default_namespace
from repro.webdb.delta import CatalogDelta, ChangeLog
from repro.webdb.counters import QueryBudget
from repro.webdb.federation import FederatedInterface
from repro.webdb.interface import TopKInterface
from repro.webdb.query import Row, SearchQuery


class Algorithm(enum.Enum):
    """User-selectable reranking algorithm family."""

    BASELINE = "baseline"
    BINARY = "binary"
    RERANK = "rerank"
    TA = "ta"

    @staticmethod
    def parse(name: str) -> "Algorithm":
        """Parse an algorithm name, accepting the paper's 1D/MD prefixes."""
        cleaned = name.strip().lower().replace("1d-", "").replace("md-", "")
        try:
            return Algorithm(cleaned)
        except ValueError as exc:
            valid = ", ".join(a.value for a in Algorithm)
            raise RankingFunctionError(
                f"unknown algorithm {name!r}; expected one of: {valid}"
            ) from exc


def _variant(algorithm: Algorithm) -> Variant:
    # TA degenerates to 1D-RERANK when there is only one ranking attribute.
    return Variant.RERANK if algorithm is Algorithm.TA else Variant(algorithm.value)


@dataclass(frozen=True)
class RerankRequest:
    """A fully specified reranking request (used by the service layer)."""

    query: SearchQuery
    ranking: UserRankingFunction
    algorithm: Algorithm = Algorithm.RERANK
    page_size: int = 10

    def describe(self) -> str:
        """Human-readable rendering used by logs and the statistics panel."""
        return (
            f"filter [{self.query.describe()}] ranked by [{self.ranking.describe()}] "
            f"via {self.algorithm.value}"
        )


class QueryReranker:
    """Third-party reranking engine over one web database."""

    def __init__(
        self,
        interface: TopKInterface,
        config: Optional[RerankConfig] = None,
        dense_cache: Optional[DenseRegionCache] = None,
        result_cache: Optional[QueryResultCache] = None,
    ) -> None:
        self._interface = interface
        config = config or RerankConfig()
        self._result_cache = (
            result_cache if result_cache is not None else QueryResultCache()
        )
        self._cache_namespace = default_namespace(interface)
        self._dense_index = DenseRegionIndex(self._result_cache, self._cache_namespace, dense_cache)
        # Federated sources: cache and feed keys stay above the shard layer.
        # The reranker only reads the interface it is given: guards and the
        # cache the shard parts are read from were fixed when it was built.
        self._federation: Optional[FederatedInterface] = (
            interface if isinstance(interface, FederatedInterface) else None
        )
        self._feed_store: Optional[RerankFeedStore] = (
            RerankFeedStore()
            if config.enable_rerank_feed
            else None
        )
        #: Every delta, in order: live streams drop the touched rows from
        #: their sessions, and what they proved before a change that can
        #: match their filter query.
        self._changes = ChangeLog()
        self._session_counter = itertools.count(1)
        self._feed_counter = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def interface(self) -> TopKInterface:
        """The web database interface this reranker talks to."""
        return self._interface

    @property
    def dense_index(self) -> DenseRegionIndex:
        """The shared dense-region index: a view of the result cache."""
        return self._dense_index

    @property
    def federation(self) -> Optional[FederatedInterface]:
        """The federated interface when this reranker serves a sharded
        source; ``None`` over a plain (unsharded) database."""
        return self._federation

    @property
    def result_cache(self) -> QueryResultCache:
        """The shared query-result cache (a private one unless the caller
        handed one in).  Sessions created through this reranker — and any
        other reranker handed the same cache object — reuse each other's
        query answers."""
        return self._result_cache

    @property
    def feed_store(self) -> Optional[RerankFeedStore]:
        """The shared rerank feed store (``None`` when the feed is disabled).
        Sessions asking for the same canonical *(query, ranking, algorithm)*
        share one materialized Get-Next stream through it."""
        return self._feed_store

    def resilience_snapshot(self) -> Optional[Dict[str, object]]:
        """Aggregated retry/breaker/degradation counters of the source's
        guards for the statistics panel — one shape whether the source is a
        single stack or a federation of them; ``None`` over a bare,
        unguarded interface."""
        return self._interface.resilience_snapshot()

    def close(self) -> None:
        """Release shared resources: every feed is retired and the source is
        closed (a remote adapter's query pool shuts down once its running
        round trips finish).  Idempotent; the reranker and its live streams
        remain usable — new requests rebuild their feeds from scratch.
        Closing changes no data: it logs no change, and the result cache
        keeps every entry, including answers still in flight."""
        if self._feed_store is not None:
            self._feed_store.close()
        self._interface.close()

    def apply_delta(self, delta: CatalogDelta) -> Dict[str, object]:
        """Retire *exactly* the derived state a catalog change could have
        perturbed.

        The change was made on the site (a database, or a federation that
        routes rows to owning shards); the reranker only consumes the
        :class:`~repro.webdb.delta.CatalogDelta` the site returned, threaded
        through every caching layer — the one way a change reaches them:

        * result-cache entries whose query a touched tuple version matches
          are flushed; a federated entry keeps, as parts, the pages of the
          shards whose part of the change cannot match its query;
          its region entries, the dense regions holding a touched version,
          are counted first (and the dense-region store drops their boxes);
        * the change is logged after every cache is retired: before its
          next Get-Next a live stream drops every touched tuple from its
          session cache and, when its filter query could match a touched
          version, what it has proven (a 1D verified prefix, the MD open
          boxes, TA's sorted-access cursors) — so re-proving never reads a stale
          cache entry or a cached row of an older version;
        * rerank feeds are decided last, after the log: a feed whose filter
          query a touched version matches is retired when such a version
          ranks at or before its last verified row, or when the feed is
          exhausted, stale or mid-advance.  A surviving feed keeps its
          prefix (feed order is a pure function of the tuples matching the
          filter) and its producer continues from the frontier through its
          own change watch; an advance that starts after the log can only
          re-prove.

        A source that sends no deltas is refreshed by a restart plus
        :meth:`verify_dense_cache`.  Returns a summary: the delta, its upsert
        and delete counts, and how many cache entries, dense regions and
        feeds it retired.
        """
        summary: Dict[str, object] = {
            "upserts": delta.upserts,
            "deletes": delta.deletes,
            "cache_entries_retired": 0,
            "regions_retired": 0,
            "feeds_retired": 0,
            "delta": delta,
        }
        if delta.is_empty:
            return summary
        facade_delta = delta.with_namespace(self._cache_namespace)
        summary["regions_retired"] = self._dense_index.invalidate_delta(facade_delta)
        summary["cache_entries_retired"] = self._result_cache.invalidate_delta(
            self._cache_namespace, facade_delta
        )
        self._changes.record(facade_delta)
        if self._feed_store is not None:
            summary["feeds_retired"] = self._feed_store.invalidate_delta(
                self._cache_namespace, facade_delta
            )
        return summary

    def _new_session(self, label: str) -> Session:
        with self._lock:
            number = next(self._session_counter)
        return Session(session_id=f"{label}-{number}")

    # ------------------------------------------------------------------ #
    def rerank(
        self,
        query: SearchQuery,
        ranking: UserRankingFunction,
        algorithm: Algorithm = Algorithm.RERANK,
        session: Optional[Session] = None,
        budget: Optional[QueryBudget] = None,
    ) -> GetNextStream:
        """Create a Get-Next stream answering ``query`` in ``ranking`` order.

        The returned stream is lazy: no external query is issued until its
        first ``get_next()`` / ``next_page()`` call.

        With the shared rerank feed enabled, requests for the same canonical
        *(query, ranking, algorithm)* share one materialized stream: the
        first session to need each position drives the real algorithm (the
        *leader*), every other session replays the verified prefix at zero
        external queries (a *follower*).  Requests carrying a private
        ``budget`` bypass the feed — budget enforcement is per-request and
        cannot be shared.
        """
        ranking.validate(self._interface.schema)
        query.validate(self._interface.schema)
        if not ranking.is_single_attribute:
            # Fail eagerly (feed producers are built lazily on first advance,
            # which would otherwise delay this error to the first page).
            self._require_linear(ranking)
        session = session or self._new_session("session")
        description = RerankRequest(query=query, ranking=ranking, algorithm=algorithm).describe()

        if self._feed_store is not None and budget is None:
            feed = self._feed_store.attach(
                self._cache_namespace,
                query,
                ranking,
                algorithm.value,
                self._interface.system_k,
                self._interface.key_column,
                factory=lambda: self._build_feed_producer(query, ranking, algorithm),
            )
            if feed is not None:
                return FeedBackedStream(feed, session, description=description)

        engine = self._build_engine(session.statistics, budget)
        algorithm_object = self._build_algorithm(engine, query, ranking, session, algorithm)
        return GetNextStream(algorithm_object, session, description=description)

    # ------------------------------------------------------------------ #
    def _build_engine(self, statistics, budget: Optional[QueryBudget]) -> QueryEngine:
        return QueryEngine(
            self._interface,
            statistics=statistics,
            budget=budget,
            result_cache=self._result_cache,
            cache_namespace=self._cache_namespace,
        )

    def _build_algorithm(
        self,
        engine: QueryEngine,
        query: SearchQuery,
        ranking: UserRankingFunction,
        session: Session,
        algorithm: Algorithm,
    ):
        """The algorithm-selection logic shared by private streams and feed
        producers: 1D functions go to the 1D algorithms, MD ones to the MD
        algorithms, MD-TA on explicit request."""
        if ranking.is_single_attribute:
            return self._build_onedim(engine, query, ranking, session, algorithm)
        if algorithm is Algorithm.TA:
            return ThresholdAlgorithmGetNext(
                engine=engine,
                base_query=query,
                ranking=self._require_linear(ranking),
                session=session,
                dense_index=self._dense_index,
                changes=self._changes,
            )
        return MultiDimGetNext(
            engine=engine,
            base_query=query,
            ranking=self._require_linear(ranking),
            session=session,
            variant=_variant(algorithm),
            dense_index=self._dense_index,
            changes=self._changes,
        )

    def _build_feed_producer(
        self,
        query: SearchQuery,
        ranking: UserRankingFunction,
        algorithm: Algorithm,
    ) -> FeedProducer:
        """The private driver behind one shared feed: a dedicated session (so
        no user's seen-tuple cache or emission history perturbs the canonical
        order) and a dedicated engine whose statistics accumulate on the
        producer session — leaders absorb per-advance deltas from there.

        Feed keys are computed above the shard layer (federated namespace and
        federated ``system_k``), so followers replay one merged prefix
        regardless of the shard count below."""
        with self._lock:
            number = next(self._feed_counter)
        producer_session = Session(session_id=f"feed-{number}")
        engine = self._build_engine(producer_session.statistics, budget=None)
        algorithm_object = self._build_algorithm(
            engine, query, ranking, producer_session, algorithm
        )
        return FeedProducer(algorithm_object, producer_session)

    # ------------------------------------------------------------------ #
    def _build_onedim(
        self,
        engine: QueryEngine,
        query: SearchQuery,
        ranking: UserRankingFunction,
        session: Session,
        algorithm: Algorithm,
    ) -> OneDimGetNext:
        return OneDimGetNext(
            engine=engine,
            base_query=query,
            ranking=self._effective_onedim(ranking),
            session=session,
            variant=_variant(algorithm),
            dense_index=self._dense_index,
            changes=self._changes,
        )

    @staticmethod
    def _effective_onedim(ranking: UserRankingFunction) -> SingleAttributeRanking:
        """The single-attribute ranking a 1D request actually executes under
        (a 1D linear function runs as its attribute sorted by weight sign)."""
        if isinstance(ranking, SingleAttributeRanking):
            return ranking
        attribute = ranking.attributes[0]
        return SingleAttributeRanking(
            attribute, ascending=ranking.weight(attribute) > 0
        )

    @staticmethod
    def _require_linear(ranking: UserRankingFunction) -> LinearRankingFunction:
        if isinstance(ranking, LinearRankingFunction):
            return ranking
        raise RankingFunctionError(
            "multi-dimensional reranking requires a LinearRankingFunction"
        )

    # ------------------------------------------------------------------ #
    def verify_dense_cache(self) -> Dict[str, int]:
        """Boot-time verification of the persistent dense-region cache against
        the live database (the paper refreshes the MySQL cache at start-up).

        Each stored region is re-crawled through a :class:`QueryEngine` over
        a result cache of its own, so it reads only live answers, into a region
        entry there.  A re-crawl that received a degraded answer cannot verify
        its region, which is dropped until a request crawls it again.  The
        live answers and regions are then stored in the shared result cache,
        where a request inside a verified region reads it at zero queries.
        Returns :meth:`~repro.sqlstore.dense_cache.DenseRegionCache.verify`'s
        counters; a no-op when no persistent cache was given.
        """
        cache = self._dense_index.store
        if cache is None:
            return {"checked": 0, "refreshed": 0, "unchanged": 0}
        live = QueryResultCache()
        engine = QueryEngine(self._interface, result_cache=live, cache_namespace=self._cache_namespace)
        crawler = HiddenDatabaseCrawler(engine)
        since = self._result_cache.changes(self._cache_namespace).sequence

        def crawl(bounds) -> bool:
            box = SearchQuery.build(ranges=bounds)
            degraded = engine.statistics.read("degraded_results")
            rows, _ = crawler.crawl(box)
            if engine.statistics.read("degraded_results") != degraded:
                return False
            return live.store_region(self._cache_namespace, box, engine.system_k, rows)

        counters = cache.verify(crawl)
        self._result_cache.absorb(live, since)
        return counters


class FeedBackedStream(GetNextStream):
    """A Get-Next stream served from a shared :class:`RerankFeed`.

    Replay/live handoff: positions inside the feed's verified prefix replay
    shared immutable rows at zero external queries and zero algorithm work;
    the first stream to step past the deepest verified position is promoted
    to leader for that advance, drives the feed's private producer, and
    absorbs the producer's statistics delta into its own panel.  Per-user
    dedup still applies: rows this session has already been handed (in this
    or an earlier request on the same session) are skipped exactly as the
    live algorithms skip them.
    """

    def __init__(self, feed: RerankFeed, session: Session, description: str = "") -> None:
        super().__init__(algorithm=None, session=session, description=description)
        self._feed = feed
        self._position = 0
        self._led = False

    @property
    def feed(self) -> RerankFeed:
        """The shared feed backing this stream."""
        return self._feed

    @property
    def position(self) -> int:
        """The stream's cursor within the feed's canonical emission order."""
        return self._position

    @property
    def led(self) -> bool:
        """True once this stream has performed at least one leader advance."""
        return self._led

    def _next_row(self) -> Optional[Row]:
        statistics = self.statistics
        key_column = self._feed.key_column
        while True:
            row, replayed = self._feed.row_at(self._position, statistics=statistics)
            if not replayed and not self._led:
                self._led = True
                self._feed.note_promotion()
            counts = {"feed_hits": 1} if replayed else {"feed_leader_advances": 1}
            if row is None:
                statistics.add(get_next_calls=1, **counts)
                return None
            self._position += 1
            # Per-user dedup over replayed rows: the live algorithms never
            # re-emit a tuple the session has already been handed, so the
            # replay path must not either.  The position is still counted —
            # its cost (for led advances, already absorbed above) must
            # reconcile with the feed-level counters.
            if self._session.has_emitted(row[key_column]):
                statistics.add(**counts)
                continue
            self._session.mark_emitted(row, key_column)
            statistics.add(
                get_next_calls=1, tuples_returned=1, feed_replayed_tuples=int(replayed), **counts
            )
            return row
