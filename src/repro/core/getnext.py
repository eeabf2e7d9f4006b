"""Get-Next result streams.

The Get-Next primitive of the VLDB'16 paper returns the answers of a reranked
query one at a time.  :class:`GetNextStream` is the thin driver the service
layer (and the examples) consume: it wraps any algorithm object exposing a
``next() -> Optional[row]`` method and provides paging, batching, iteration,
and access to the per-request statistics — the user-visible side of the
"get-next" button of the QR2 UI.

Emitted rows are the read-only :data:`~repro.webdb.query.Row`\\ s the
algorithm produced, kept and handed out by reference: ``top()`` and
``returned_so_far`` are O(count) slices of them, never copies.
The check-emit-append step of :meth:`get_next` runs under a per-stream lock,
so concurrent page requests against one stream interleave at tuple
granularity instead of corrupting the emission history.  Subclasses override
:meth:`_next_row` to change where tuples come from — the shared rerank feed's
:class:`~repro.core.reranker.FeedBackedStream` replays a verified prefix
there and hands off to the live algorithm past its end.
"""

from __future__ import annotations

import enum
import threading
from typing import Dict, Iterator, List, Optional, Protocol

from repro.core.session import Session
from repro.core.stats import RerankStatistics
from repro.webdb.query import Row


class GetNextAlgorithm(Protocol):
    """Structural interface of the algorithm objects this stream can drive."""

    def next(self) -> Optional[Row]:  # pragma: no cover - protocol
        """Return the next tuple, or ``None`` when exhausted."""
        ...


class Variant(enum.Enum):
    """Which 1D or MD algorithm to run; RERANK is BINARY plus the
    on-the-fly dense-region index."""

    BASELINE = "baseline"
    BINARY = "binary"
    RERANK = "rerank"


class GetNextStream:
    """Incremental, stateful view over a reranked query answer."""

    def __init__(
        self,
        algorithm: Optional[GetNextAlgorithm],
        session: Session,
        description: str = "",
    ) -> None:
        self._algorithm = algorithm
        self._session = session
        self._description = description
        self._exhausted = False
        self._closed = False
        self._returned: List[Row] = []
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    @property
    def description(self) -> str:
        """Human-readable description of the request (query + ranking)."""
        return self._description

    @property
    def session(self) -> Session:
        """The session backing this stream."""
        return self._session

    @property
    def statistics(self) -> RerankStatistics:
        """Statistics accumulated while serving this stream."""
        return self._session.statistics

    @property
    def exhausted(self) -> bool:
        """True once the stream has returned every matching tuple."""
        return self._exhausted

    @property
    def closed(self) -> bool:
        """True after :meth:`close`; further Get-Next calls return ``None``."""
        return self._closed

    @property
    def returned_so_far(self) -> List[Row]:
        """Every tuple already returned, in rank order (the shared read-only
        rows themselves)."""
        with self._lock:
            return list(self._returned)

    # ------------------------------------------------------------------ #
    def get_next(self) -> Optional[Row]:
        """Return the next tuple of the reranked answer (the paper's Get-Next
        primitive), or ``None`` when the answer is exhausted.

        Thread-safe: concurrent callers serialize on the stream lock, so the
        emission history can never record a tuple twice or drop one."""
        with self._lock:
            if self._exhausted or self._closed:
                return None
            self.statistics.start_timer()
            try:
                row = self._next_row()
            finally:
                self.statistics.stop_timer()
            if row is None:
                self._exhausted = True
                return None
            self._returned.append(row)
            return row

    def _next_row(self) -> Optional[Row]:
        """Produce the next raw tuple.  The default implementation drives the
        wrapped live algorithm; subclasses replace it to replay shared state
        (the feed-backed stream's replay/live handoff lives here)."""
        assert self._algorithm is not None
        return self._algorithm.next()

    def next_page(self, page_size: int) -> List[Row]:
        """Return up to ``page_size`` further tuples (the "next page" button)."""
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        page: List[Row] = []
        with self._lock:
            for _ in range(page_size):
                row = self.get_next()
                if row is None:
                    break
                page.append(row)
        return page

    def top(self, count: int) -> List[Row]:
        """Return the first ``count`` tuples overall, fetching more if needed.

        Tuples already returned by earlier calls count toward ``count``.  The
        returned rows are the shared read-only rows, not copies.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            while len(self._returned) < count and not self._exhausted:
                if self.get_next() is None:
                    break
            return list(self._returned[:count])

    def __iter__(self) -> Iterator[Row]:
        while True:
            row = self.get_next()
            if row is None:
                return
            yield row

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """End the stream (idempotent): further Get-Next calls return
        ``None``; the prefix already returned stays readable.  The stream
        holds nothing to release.  The service layer calls this when a
        request is replaced, when its session expires, and at shutdown.
        """
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Summary used by the service's statistics panel."""
        with self._lock:
            returned = len(self._returned)
        return {
            "description": self._description,
            "returned": returned,
            "exhausted": self._exhausted,
            "statistics": self.statistics.snapshot(),
        }
