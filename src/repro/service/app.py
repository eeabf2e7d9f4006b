"""The QR2 application object.

:class:`QR2Service` is the framework-free equivalent of the paper's Flask
application.  It owns the data-source registry and the per-user sessions and
exposes the operations behind the three sections of the QR2 UI:

* **Filtering section** → the ``filters`` dictionary of :meth:`submit_query`;
* **Ranking section** → the ``sliders`` / ``ranking`` specification (plus the
  popular-function suggestions);
* **Search results & statistics** → :meth:`get_next_page`, whose pages carry
  what their request paid for, and :meth:`statistics`, the full panel.

Responses are plain dictionaries so the HTTP layer
(:mod:`repro.service.httpapp`), the examples, and the tests can consume them
directly.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import ServiceConfig
from repro.core.functions import UserRankingFunction, from_specification
from repro.core.getnext import GetNextStream
from repro.core.reranker import Algorithm
from repro.core.session import Session
from repro.exceptions import QueryError, RankingFunctionError, SessionError
from repro.service.popular import popular_functions
from repro.service.sliders import ranking_from_sliders
from repro.service.sources import DataSource, DataSourceRegistry, build_default_registry
from repro.service.warming import FeedWarmer, PopularityTracker
from repro.webdb.counters import Counters
from repro.webdb.query import SearchQuery


@dataclass
class _ActiveRequest:
    """One reranking request bound to a user session."""

    source: DataSource
    stream: GetNextStream
    page_size: int
    pages_served: int = 0


@dataclass
class ServiceCounters(Counters):
    """Service-scope counters: catalog deltas applied and what they retired
    (the panel's ``invalidation`` block), then the pages served with the
    degradation counter moving underneath them (a shard dark)."""

    deltas: int = 0
    upserts: int = 0
    deletes: int = 0
    cache_entries_retired: int = 0
    regions_retired: int = 0
    feeds_retired: int = 0
    degraded_pages: int = 0


#: The request's :class:`RerankStatistics` entries the panel shows, in order.
_PANEL_REQUEST = ("external_queries", "processing_seconds", "parallel_fraction",
                  "cache_hits", "result_cache_hits", "contained_answers",
                  "coalesced_queries", "result_cache_hit_rate", "dense_index_hits",
                  "dense_regions_built", "tuples_returned", "feed_hits",
                  "feed_replayed_tuples", "feed_leader_advances")  # fmt: skip
#: The request's own entries of the panel's ``resilience`` block.
_RESILIENCE_REQUEST = ("degraded_results", "retried_queries")
#: Delta summary entries summed into :class:`ServiceCounters`.
_DELTA_TOTALS = ("upserts", "deletes", "cache_entries_retired", "regions_retired",
                 "feeds_retired")  # fmt: skip


def _bounds(attribute: object, bounds: object) -> Tuple[float, float]:
    """A range filter's ``[low, high]``: exactly two numbers."""
    if (
        not isinstance(bounds, (list, tuple))
        or len(bounds) != 2
        or any(isinstance(b, bool) or not isinstance(b, (int, float)) for b in bounds)
    ):
        raise QueryError(f"range of {attribute!r} must be a pair of numbers, not {bounds!r}")
    return float(bounds[0]), float(bounds[1])


def _members(attribute: object, values: object) -> List[object]:
    """A membership filter's values: a list (or tuple)."""
    if not isinstance(values, (list, tuple)):
        raise QueryError(f"membership of {attribute!r} must be a list, not {values!r}")
    return list(values)


class QR2Service:
    """The third-party reranking service."""

    def __init__(
        self,
        registry: Optional[DataSourceRegistry] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self._config = config or ServiceConfig()
        self._registry = registry or build_default_registry(
            database_config=self._config.database,
            rerank_config=self._config.rerank,
            dense_cache_path=self._config.dense_cache_path,
        )
        self._sessions: Dict[str, Session] = {}
        self._requests: Dict[str, _ActiveRequest] = {}
        self._lock = threading.Lock()
        # One reentrant lock per session serializes that session's request
        # processing (submit/get-next/statistics): concurrent callers on
        # *distinct* sessions proceed in parallel, while two requests for the
        # same session can never interleave — Get-Next semantics depend on the
        # emission history advancing one page at a time.
        self._session_locks: Dict[str, threading.RLock] = {}
        # When ``create_session`` last swept idle sessions (session clock).
        self._swept_at = float("-inf")
        # Cumulative delta and degraded-page counters, and the
        # popularity-driven warmer (run by an explicit ``warm_once``).
        self._counters = ServiceCounters()
        self._popularity = PopularityTracker()
        self._warmer = FeedWarmer(self, tracker=self._popularity)

    @property
    def config(self) -> ServiceConfig:
        """The service configuration (serving knobs, page sizes, session TTL)."""
        return self._config

    # ------------------------------------------------------------------ #
    # Source discovery
    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> DataSourceRegistry:
        """The data-source registry behind this service."""
        return self._registry

    def close(self) -> None:
        """Close every active request stream, then close every source's
        reranker (retiring its feeds and closing its source, which ends a
        remote adapter's query pool).  Idempotent."""
        with self._lock:
            requests = list(self._requests.values())
            self._requests.clear()
            self._sessions.clear()
            self._session_locks.clear()
        for request in requests:
            request.stream.close()
        for name in self._registry.names():
            self._registry.get(name).reranker.close()

    def list_sources(self) -> List[Dict[str, object]]:
        """Describe every selectable data source (the UI's source picker)."""
        return self._registry.describe_all()

    def describe_source(self, source_name: str) -> Dict[str, object]:
        """Description of one source, including its popular functions."""
        source = self._registry.get(source_name)
        description = source.describe()
        description["popular_functions"] = [
            function.as_dict() for function in popular_functions(source_name)
        ]
        return description

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def create_session(self) -> str:
        """Create a new user session and return its identifier.

        At most once per ``session_ttl_seconds`` it first expires idle
        sessions (:meth:`expire_idle_sessions`), so the session table stays
        bounded with no timer thread."""
        now = time.time()
        with self._lock:
            sweep = now - self._swept_at >= self._config.session_ttl_seconds
            if sweep:
                self._swept_at = now
        if sweep:
            self.expire_idle_sessions()
        session_id = uuid.uuid4().hex
        with self._lock:
            self._sessions[session_id] = Session(session_id=session_id)
            self._session_locks[session_id] = threading.RLock()
        return session_id

    def _session(self, session_id: str) -> Session:
        with self._lock:
            if session_id not in self._sessions:
                raise SessionError(f"unknown session {session_id!r}")
            return self._sessions[session_id]

    def _session_lock(self, session_id: str) -> threading.RLock:
        """The per-session serialization lock (raises for unknown sessions)."""
        with self._lock:
            lock = self._session_locks.get(session_id)
            if lock is None:
                raise SessionError(f"unknown session {session_id!r}")
            return lock

    def session_info(self, session_id: str) -> Dict[str, object]:
        """Summary of a session's cache and history."""
        return self._session(session_id).describe()

    def close_session(self, session_id: str) -> bool:
        """Drop a session immediately (its active stream is closed).  Returns
        False for unknown sessions; used by the feed warmer's throwaway
        sessions and callers that know a session is done rather than waiting
        out the idle TTL.

        A request in flight on the session finishes first: the session's
        lock is taken, blocking, before anything is dropped."""
        try:
            lock = self._session_lock(session_id)
        except SessionError:
            return False
        with lock:
            with self._lock:
                if self._sessions.pop(session_id, None) is None:
                    return False
                self._session_locks.pop(session_id, None)
                request = self._requests.pop(session_id, None)
            if request is not None:
                request.stream.close()
        return True

    def expire_idle_sessions(self) -> int:
        """Drop sessions idle for longer than the configured TTL; returns the
        number removed.  Each dropped session's active stream is closed.

        A session whose serialization lock is currently held (a request is
        mid-flight on another thread) is never expired — it is by definition
        not idle, and expiring it would close the stream under the request."""
        removed = 0
        dropped: List[_ActiveRequest] = []
        with self._lock:
            for session_id in list(self._sessions):
                if self._sessions[session_id].idle_seconds() <= self._config.session_ttl_seconds:
                    continue
                lock = self._session_locks.get(session_id)
                if lock is not None and not lock.acquire(blocking=False):
                    continue  # request in flight on this session
                try:
                    self._sessions.pop(session_id)
                    self._session_locks.pop(session_id, None)
                    request = self._requests.pop(session_id, None)
                    if request is not None:
                        dropped.append(request)
                    removed += 1
                finally:
                    if lock is not None:
                        lock.release()
        for request in dropped:
            request.stream.close()
        return removed

    # ------------------------------------------------------------------ #
    # Catalog deltas and warming
    # ------------------------------------------------------------------ #
    @property
    def warmer(self) -> FeedWarmer:
        """The popularity-driven feed warmer; a caller runs a pass with
        :meth:`~repro.service.warming.FeedWarmer.warm_once`."""
        return self._warmer

    def apply_delta(
        self,
        source_name: str,
        upserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[object] = (),
    ) -> Dict[str, object]:
        """Apply a catalog change-set to ``source_name``'s site and retire
        exactly the derived state it could have perturbed.

        The site makes the change; its delta goes to
        :meth:`~repro.core.reranker.QueryReranker.apply_delta` (cache entries
        and dense regions a touched tuple version matches are flushed, and
        feeds whose prefix such a version reaches are retired; everything
        else keeps serving).
        Returns the retirement summary; cumulative counters appear in the
        statistics panel's ``invalidation`` block.
        """
        source = self._registry.get(source_name)
        delta = source.interface.apply_delta(upserts=upserts, deletes=deletes)  # type: ignore[attr-defined]
        summary = source.reranker.apply_delta(delta)
        self._counters.add(
            deltas=1,
            **{name: int(summary[name]) for name in _DELTA_TOTALS},  # type: ignore[call-overload]
        )
        return summary

    # ------------------------------------------------------------------ #
    # Query submission and paging
    # ------------------------------------------------------------------ #
    def submit_query(
        self,
        session_id: str,
        source_name: str,
        filters: Optional[Mapping[str, object]] = None,
        sliders: Optional[Mapping[str, float]] = None,
        ranking: Optional[Mapping[str, object]] = None,
        algorithm: str = "rerank",
        page_size: Optional[int] = None,
    ) -> Dict[str, object]:
        """Process a new reranking query for ``session_id``.

        ``filters`` uses the :meth:`SearchQuery.build` shape
        (``{"ranges": {...}, "memberships": {...}}``); the ranking preference
        is given either as ``sliders`` (the MD slider UI) or as ``ranking``
        (an explicit 1D/weights specification).  The first result page is
        returned with the request's counters (render its rows with
        :func:`repro.dataset.table.format_grid`).
        """
        with self._session_lock(session_id):
            session = self._session(session_id)
            session.touch()
            # A new query keeps the session's seen-tuple cache but starts a
            # fresh emission history and statistics panel.
            session.reset_for_new_request()
            source = self._registry.get(source_name)
            query = self._build_query(filters, source)
            ranking_function = self._build_ranking(sliders, ranking, source)
            chosen_algorithm = Algorithm.parse(algorithm)
            size = self._effective_page_size(page_size)

            stream = source.reranker.rerank(
                query, ranking_function, algorithm=chosen_algorithm, session=session
            )
            # Only specifications that validated and produced a stream are
            # recorded — the warmer replays tracker entries verbatim.
            self._popularity.record(
                source_name, filters, sliders, ranking, algorithm
            )
            with self._lock:
                replaced = self._requests.get(session_id)
                self._requests[session_id] = _ActiveRequest(
                    source=source, stream=stream, page_size=size
                )
            if replaced is not None:
                replaced.stream.close()
            return self._serve_page(session_id)

    def get_next_page(self, session_id: str) -> Dict[str, object]:
        """Serve the next page of the session's active request (the "get-next"
        button of the UI)."""
        with self._session_lock(session_id):
            self._session(session_id).touch()
            return self._serve_page(session_id)

    def statistics(self, session_id: str) -> Dict[str, object]:
        """The statistics panel for the session's active request."""
        with self._session_lock(session_id):
            request = self._active_request(session_id)
            return self._statistics_panel(request)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _active_request(self, session_id: str) -> _ActiveRequest:
        with self._lock:
            request = self._requests.get(session_id)
        if request is None:
            raise SessionError(f"session {session_id!r} has no active query")
        return request

    def _effective_page_size(self, page_size: Optional[int]) -> int:
        if page_size is None:
            return self._config.default_page_size
        if isinstance(page_size, bool) or not isinstance(page_size, int):
            raise QueryError(f"page_size must be an integer, not {page_size!r}")
        if page_size <= 0:
            raise QueryError("page_size must be positive")
        return min(page_size, self._config.max_page_size)

    def _build_query(
        self, filters: Optional[Mapping[str, object]], source: DataSource
    ) -> SearchQuery:
        filters = filters or {}
        if not isinstance(filters, Mapping):
            raise QueryError("'filters' must be a mapping")
        ranges = filters.get("ranges", {})
        memberships = filters.get("memberships", {})
        if not isinstance(ranges, Mapping) or not isinstance(memberships, Mapping):
            raise QueryError("'ranges' and 'memberships' must be mappings")
        query = SearchQuery.build(
            ranges={str(k): _bounds(k, v) for k, v in ranges.items()},
            memberships={str(k): _members(k, v) for k, v in memberships.items()},
        )
        query.validate(source.schema)
        return query

    def _build_ranking(
        self,
        sliders: Optional[Mapping[str, float]],
        ranking: Optional[Mapping[str, object]],
        source: DataSource,
    ) -> UserRankingFunction:
        if sliders is not None and ranking is not None:
            raise QueryError("provide either 'sliders' or 'ranking', not both")
        if sliders is not None:
            return ranking_from_sliders(sliders, source.schema)
        if ranking is not None:
            if not isinstance(ranking, Mapping):
                raise RankingFunctionError("'ranking' must be a mapping")
            function = from_specification(ranking)
            function.validate(source.schema)
            if function.dimensionality > 1:
                # Explicit weight specifications still get slider-style
                # normalization so the weights are comparable across attributes.
                return ranking_from_sliders(dict(ranking["weights"]), source.schema)  # type: ignore[index]
            return function
        raise QueryError("a ranking preference ('sliders' or 'ranking') is required")

    def _serve_page(self, session_id: str) -> Dict[str, object]:
        request = self._active_request(session_id)
        # Bracket the advance with the degradation counter: movement means
        # some answer under this page came back partial, and the page must
        # say so instead of passing as a full answer.
        mark = request.stream.statistics.read("degraded_results")
        rows = request.stream.next_page(request.page_size)
        degraded = request.stream.statistics.read("degraded_results") != mark
        if degraded:
            self._counters.record("degraded_pages")
        request.pages_served += 1
        columns = request.source.result_columns or request.source.schema.columns()
        return {
            "session_id": session_id,
            "source": request.source.name,
            "page": request.pages_served,
            "page_size": request.page_size,
            "rows": [{name: row[name] for name in columns} for row in rows],
            "exhausted": request.stream.exhausted,
            "degraded": degraded,
            "statistics": self._request_panel(request),
        }

    def _request_panel(self, request: _ActiveRequest) -> Dict[str, object]:
        """What the request paid for: its counters and its own resilience."""
        snapshot = request.stream.statistics.snapshot()
        return {
            "description": request.stream.description,
            **{name: snapshot[name] for name in _PANEL_REQUEST},
            "resilience": {name: snapshot[name] for name in _RESILIENCE_REQUEST},
        }

    def _statistics_panel(self, request: _ActiveRequest) -> Dict[str, object]:
        """The request panel with the service-scope blocks."""
        request_panel = self._request_panel(request)
        request_resilience = request_panel.pop("resilience")
        reranker = request.source.reranker
        feed_store = reranker.feed_store
        # Sharded sources: per-shard queries issued, merge depth, and scatter
        # fan-out from the federated interface's describe() — whose
        # ``resilience`` block is the guards' snapshot, taken once per panel
        # and reused for ``resilience.source`` below.
        federation = (
            reranker.federation.describe() if reranker.federation is not None else None
        )
        invalidation = self._counters.snapshot()
        degraded_pages = invalidation.pop("degraded_pages")
        source_resilience = (
            federation["resilience"]
            if federation is not None
            else reranker.resilience_snapshot()
        )
        return {
            **request_panel,
            "dense_index": reranker.dense_index.describe(),
            "result_cache": reranker.result_cache.snapshot(),
            "rerank_feed": feed_store.snapshot() if feed_store else None,
            "federation": federation,
            # Cumulative delta-invalidation and warming activity (service
            # scope, not per-request: deltas and warming passes are not tied
            # to any one session).
            "invalidation": invalidation,
            "warming": self._warmer.snapshot(),
            # Retries, breaker transitions, degraded serving.  The
            # ``source`` block is the guards' shared counters (``None`` over
            # a bare, unguarded interface); the per-request counters come
            # from this request's statistics.
            "resilience": {
                "source": source_resilience,
                **request_resilience,
                "degraded_pages": degraded_pages,
            },
        }
