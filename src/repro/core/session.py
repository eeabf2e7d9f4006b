"""Per-user session state.

When a user submits a query the QR2 web service creates a session whose main
job is the *user-level cache*: every tuple the service has seen while
answering this user's queries is retained so that

* subsequent Get-Next calls can start from a good candidate without asking the
  web database again, and
* tuples already returned to the user are never returned twice.

The cache has two halves.  The session holds *what was seen*: a key→row
dictionary (the current version of every tuple) beside an append-only log of
those versions in arrival order.  Each Get-Next stream holds *what it may
still emit*: a :class:`CandidateHeap` that reads the log through its own
cursor, scores a row once — when it absorbs it — and keeps the candidates
ordered, so "the best cached candidate" is a peek rather than a re-filter,
re-score and re-sort of everything seen.

The session also carries the emitted result history (the "top-h so far"), the
pending queue used to emit tied tuples one at a time, and the per-request
statistics shown in the UI's statistics panel.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.functions import UserRankingFunction
from repro.core.stats import RerankStatistics
from repro.webdb.delta import ChangeLog
from repro.webdb.query import Row, SearchQuery


@dataclass
class Session:
    """State retained between Get-Next calls of one user request."""

    session_id: str
    created_at: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._seen_tuples: Dict[object, Row] = {}
        self._seen_log: List[Row] = []
        self._emitted: set = set()
        self._pending: Deque[Row] = deque()
        #: The sequence number of each source's change log the seen cache is
        #: current to (see :meth:`catch_up`).
        self._change_stamps: Dict[ChangeLog, int] = {}
        self.statistics = RerankStatistics()
        self.last_touched = self.created_at

    # ------------------------------------------------------------------ #
    # Seen-tuple cache
    # ------------------------------------------------------------------ #
    def _hold(self, key: object, row: Row) -> bool:
        """Keep ``row`` as the current version of ``key`` (lock held).  A row
        equal to the version already held is not logged again, and no layer
        copies a row, so a held row's identity says "still current"; returns
        True for a key never seen before."""
        held = self._seen_tuples.get(key)
        if held is not None and held == row:
            return False
        self._seen_tuples[key] = row
        self._seen_log.append(row)
        return held is None

    def remember(self, rows: Iterable[Row], key_column: str) -> int:
        """Add rows to the seen-tuple cache; returns how many were new."""
        added = 0
        with self._lock:
            for row in rows:
                added += self._hold(row[key_column], row)
            self.last_touched = time.time()
        return added

    def catch_up(self, changes: ChangeLog) -> None:
        """Drop every seen tuple that a change logged in ``changes`` since the
        last call may have touched, so no cached row outlives its tuple's
        version; a change the log can no longer tell apart empties the cache.
        A dropped tuple comes back only with the next answer that holds it."""
        with self._lock:
            stamp = self._change_stamps.get(changes, 0)
            sequence, deltas = changes.since(stamp)
            if sequence == stamp:
                return
            self._change_stamps[changes] = sequence
            seen = self._seen_tuples
            if deltas is None:
                seen.clear()
            elif seen:
                for delta in deltas:
                    for key in delta.keys:
                        seen.pop(key, None)

    def seen_count(self) -> int:
        """Number of distinct tuples in the cache."""
        with self._lock:
            return len(self._seen_tuples)

    def cached_candidates(
        self, query: SearchQuery, ranking: UserRankingFunction, key_column: str
    ) -> "CandidateHeap":
        """The seen tuples a stream over ``(query, ranking)`` may still emit,
        as a live ordered view — the acceleration the paper attributes to the
        session cache.  One per Get-Next stream, taken when the stream is
        built."""
        return CandidateHeap(self, query, ranking, key_column)

    def seen_since(self, cursor: int) -> List[Row]:
        """The tuple versions logged at positions ``cursor`` and later, in
        arrival order: the read-only rows themselves, shared, not copies."""
        with self._lock:
            return self._seen_log[cursor:]

    def is_candidate(self, key: object, row: Row) -> bool:
        """True while ``row`` is the current version of ``key`` and has not
        been returned to the user."""
        with self._lock:
            return key not in self._emitted and self._seen_tuples.get(key) is row

    # ------------------------------------------------------------------ #
    # Emission history
    # ------------------------------------------------------------------ #
    def mark_emitted(self, row: Row, key_column: str) -> None:
        """Record that ``row`` has been returned to the user."""
        with self._lock:
            self._emitted.add(row[key_column])
            self._hold(row[key_column], row)
            self.last_touched = time.time()

    def has_emitted(self, key: object) -> bool:
        """True when a tuple with ``key`` was already returned to the user —
        the per-user dedup check every candidate row goes through."""
        with self._lock:
            return key in self._emitted

    # ------------------------------------------------------------------ #
    # Pending queue (tied tuples of the current value/score group)
    # ------------------------------------------------------------------ #
    def push_pending(self, rows: Iterable[Row]) -> None:
        """Queue rows that are known to be the next ones to emit."""
        with self._lock:
            self._pending.extend(rows)

    def pop_pending(self) -> Optional[Row]:
        """Pop the next queued row, or ``None``."""
        with self._lock:
            return self._pending.popleft() if self._pending else None

    def clear_pending(self) -> None:
        """Drop every queued row."""
        with self._lock:
            self._pending.clear()

    # ------------------------------------------------------------------ #
    def reset_for_new_request(self) -> None:
        """Start a new reranking request within the same user session.

        The seen-tuple cache is retained (that is the whole point of the
        session variable), but the emission history, the pending queue, and
        the per-request statistics start fresh: the new request has its own
        notion of "top-h so far" and its own statistics panel.
        """
        with self._lock:
            self._emitted.clear()
            self._pending.clear()
            self.statistics = RerankStatistics()
            self.last_touched = time.time()

    # ------------------------------------------------------------------ #
    def touch(self) -> None:
        """Refresh the idle timer."""
        with self._lock:
            self.last_touched = time.time()

    def idle_seconds(self) -> float:
        """Seconds since the session was last used."""
        with self._lock:
            return time.time() - self.last_touched

    def describe(self) -> Dict[str, object]:
        """Summary used by the service layer."""
        with self._lock:
            return {
                "session_id": self.session_id,
                "seen_tuples": len(self._seen_tuples),
                "emitted": len(self._emitted),
                "pending": len(self._pending),
                "idle_seconds": time.time() - self.last_touched,
            }


class CandidateHeap:
    """One Get-Next stream's ordered view of its session's seen tuples.

    The candidates of a stream are the seen tuples that match its filter
    query, have not been emitted, and rank at or beyond its frontier.
    :meth:`best` returns the first of them under ``(score, str(key))`` — the
    row a stream may emit without asking the web database again.

    Each logged version is filtered and scored once, when the heap absorbs
    it.  An entry leaves the heap when it is found emitted, before the floor,
    or superseded by a newer version of its key; within one request emission
    is permanent, the floor only advances and a superseded version never
    becomes current again, so an entry that left never has to come back.  A
    heap therefore serves one request: a new request (whose emission history
    starts empty) builds its own from the whole log.
    """

    def __init__(
        self,
        session: Session,
        query: SearchQuery,
        ranking: UserRankingFunction,
        key_column: str,
    ) -> None:
        self._session = session
        self._query = query
        self._ranking = ranking
        self._key_column = key_column
        self._cursor = 0
        #: ``(score, str(key), log position, row)``: the position keeps two
        #: entries from ever being compared on their rows.
        self._heap: List[Tuple[float, str, int, Row]] = []

    def best(self, floor: float, inclusive: bool = True) -> Optional[Tuple[float, str, Row]]:
        """``(score, str(key), row)`` of the best candidate scoring beyond
        ``floor`` (or equal to it, when ``inclusive``), or ``None``.  ``floor``
        must not decrease between calls."""
        heap = self._heap
        for row in self._session.seen_since(self._cursor):
            if self._query.matches(row):
                entry = (self._ranking.score(row), str(row[self._key_column]), self._cursor, row)
                heapq.heappush(heap, entry)
            self._cursor += 1
        while heap:
            score, key_text, _, row = heap[0]
            beyond = score > floor or (inclusive and score == floor)
            if beyond and self._session.is_candidate(row[self._key_column], row):
                return score, key_text, row
            heapq.heappop(heap)
        return None

    def tied(self, score: float) -> List[Row]:
        """Every candidate scoring exactly ``score``, the score :meth:`best`
        just returned: a walk down the heap that stops below any entry
        scoring more."""
        heap = self._heap
        found: Dict[object, Row] = {}
        stack = [0] if heap else []
        while stack:
            index = stack.pop()
            entry_score, _, _, row = heap[index]
            if entry_score != score:
                continue
            key = row[self._key_column]
            if self._session.is_candidate(key, row):
                found[key] = row
            stack.extend(child for child in (2 * index + 1, 2 * index + 2) if child < len(heap))
        return list(found.values())


class ChangeWatch:
    """One live Get-Next stream's view of its source's :class:`ChangeLog`.

    What a stream proves from its answers (a 1D verified prefix, the MD open
    boxes, TA's sorted-access cursors) holds only while no change since can
    match its filter query — the test cache entries and feeds are retired
    by.  :meth:`changed` answers that before each Get-Next, and first catches
    the session's seen cache up, so a proof rebuilt after a change never
    rests on a cached row of an older version.
    """

    def __init__(self, changes: ChangeLog, session: Session, query: SearchQuery) -> None:
        self._changes = changes
        self._session = session
        self._query = query
        self._stamp = changes.sequence
        session.catch_up(changes)

    def current(self) -> bool:
        """True while no change has been logged since :meth:`changed` last
        looked: the session cache holds no row a change has touched."""
        return self._changes.sequence == self._stamp

    def changed(self) -> bool:
        """True when a change logged since the last call can match the
        stream's filter query."""
        if self.current():
            return False
        sequence, deltas = self._changes.since(self._stamp)
        self._session.catch_up(self._changes)
        self._stamp = sequence
        return deltas is None or any(delta.may_match_query(self._query) for delta in deltas)
