"""The top-k search interface contract.

Everything the reranking service knows about a web database goes through this
interface: submit a conjunctive :class:`~repro.webdb.query.SearchQuery`,
receive at most ``system-k`` tuples ordered by the hidden system ranking, plus
a flag telling whether the result was truncated (*overflow*).  The VLDB'16
paper distinguishes three outcomes:

* **overflow** — more than ``k`` tuples match; only the top ``k`` are returned,
  so the caller has *not* seen every matching tuple;
* **valid** — between 1 and ``k`` tuples match and all of them are returned;
* **underflow** — no tuple matches.

The algorithms' correctness hinges on this trichotomy: a region is "covered"
(fully observed) exactly when its query did not overflow.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.dataset.schema import Schema
from repro.webdb.counters import Counters
from repro.webdb.query import Row, SearchQuery

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.webdb.cache import FetchStatus
    from repro.webdb.resilience import ResilienceStatistics


class Outcome(enum.Enum):
    """Result classification of a top-k query."""

    UNDERFLOW = "underflow"
    VALID = "valid"
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class SearchResult:
    """Result of one top-k query.

    Attributes
    ----------
    query:
        The query that produced this result.
    rows:
        Returned tuples, ordered by the hidden system ranking (best first).
        At most ``system_k`` rows, each a read-only
        :data:`~repro.webdb.query.Row` that callers share and never copy.
    outcome:
        Overflow / valid / underflow classification.
    system_k:
        The interface's ``k`` at the time of the query.
    elapsed_seconds:
        Simulated (or real, for the HTTP adapter) round-trip time.
    degraded:
        True when the answer is known-incomplete: one or more federated
        shards could not be reached (``missing_shards`` names them).
        Degraded results are always classified ``OVERFLOW`` — they never
        claim to cover their query — and are never stored in the result
        cache.
    missing_shards:
        Names of the shards that contributed nothing to a degraded scatter.
    complete_rows:
        Every matching tuple in rank order (``rows`` is its prefix), when an
        overflowing answer's source saw them all.  Never set when degraded.
    """

    query: SearchQuery
    rows: Tuple[Row, ...]
    outcome: Outcome
    system_k: int
    elapsed_seconds: float = 0.0
    degraded: bool = False
    missing_shards: Tuple[str, ...] = ()
    complete_rows: Optional[Tuple[Row, ...]] = None

    @property
    def is_overflow(self) -> bool:
        """True when more tuples matched than were returned."""
        return self.outcome is Outcome.OVERFLOW

    @property
    def is_underflow(self) -> bool:
        """True when no tuple matched."""
        return self.outcome is Outcome.UNDERFLOW

    @property
    def covers_query(self) -> bool:
        """True when the caller has now observed *every* tuple matching the
        query (the definition of a covered region in the paper)."""
        return self.outcome in (Outcome.VALID, Outcome.UNDERFLOW)

    @property
    def observed_rows(self) -> Tuple[Row, ...]:
        """Every tuple the caller saw: ``complete_rows`` when kept, else ``rows``."""
        return self.rows if self.complete_rows is None else self.complete_rows

    @property
    def proves_query(self) -> bool:
        """True when :attr:`observed_rows` holds every tuple matching the query."""
        return self.covers_query or self.complete_rows is not None

    def __len__(self) -> int:
        return len(self.rows)

    def keys(self) -> List[object]:
        """Tuple identifiers (``id``) of the returned rows, in rank order."""
        return [row["id"] for row in self.rows]


#: How :meth:`TopKInterface.settle_many` settles one query of a batch: its
#: answer, or the error that stopped it (source unavailable, breaker open).
Settlement = Union[SearchResult, Exception]


def answers(settled: Sequence[Settlement]) -> List[SearchResult]:
    """The answers of a settled batch, or its first error raised."""
    for answer in settled:
        if isinstance(answer, Exception):
            raise answer
    return list(settled)  # type: ignore[arg-type]


class TopKInterface(ABC):
    """Abstract top-k search interface of a (hidden) web database."""

    @property
    @abstractmethod
    def schema(self) -> Schema:
        """Schema advertised by the public search form."""

    @property
    @abstractmethod
    def system_k(self) -> int:
        """Number of results the interface returns per query."""

    @abstractmethod
    def search(self, query: SearchQuery) -> SearchResult:
        """Execute ``query`` and return the top-k result."""

    # Optional hooks ---------------------------------------------------- #
    @property
    def key_column(self) -> str:
        """Name of the tuple identifier column."""
        return self.schema.key

    def search_many(self, queries: Sequence[SearchQuery]) -> List[SearchResult]:
        """Execute a batch of queries; each counts as one query.

        The default simply loops over :meth:`search`; implementations that
        can amortize per-batch work (an in-process engine's planning, a
        remote adapter's overlapping round trips) override it.
        """
        return [self.search(query) for query in queries]

    def settle_many(self, queries: Sequence[SearchQuery]) -> List[Settlement]:
        """Settle a batch query by query: each position holds that query's
        answer or the error that stopped it, and a raise means nothing was
        answered.  This is the one way the query engine issues queries: a
        group as one batch.  The default is one :meth:`search_many` (a database validates
        the whole batch before issuing any of it)."""
        return list(self.search_many(queries))

    def close(self) -> None:
        """Release what the interface holds between batches (a remote
        adapter's query pool); it stays usable.  Nothing by default."""

    def probe(
        self, query: SearchQuery, memoize: bool = True
    ) -> Optional[Tuple[SearchResult, "FetchStatus"]]:
        """Answer ``query`` from the source's own caches, with no round trip
        and nothing charged: ``(result, HIT | CONTAINED)``, or ``None`` when
        it needs issuing.  The query engine asks after its own cache misses;
        only a source caching below the engine (a federation's shard
        namespaces) can answer."""
        return None

    def queries_issued(self) -> int:
        """Total number of queries this interface has served (0 when the
        implementation does not track it)."""
        return 0

    @property
    def resilience_statistics(self) -> Optional["ResilienceStatistics"]:
        """The retry/breaker counters of the guards this interface issues
        through (``None`` for an unguarded source)."""
        return None

    def resilience_snapshot(self) -> Optional[Dict[str, object]]:
        """Those counters plus each guard's breaker state, for the statistics
        panel (``None`` for an unguarded source)."""
        return None


@dataclass
class InterfaceStatistics(Counters):
    """Per-source query count, rows returned and simulated seconds, kept by
    each :class:`~repro.webdb.stack.SourceStack` (``queries_issued`` and the
    federation's per-shard panel read them).  ``record`` is called
    concurrently by every request over the source, so every fold happens
    under one lock — unlocked ``+=`` on the counters loses increments."""

    queries: int = 0
    rows_returned: int = 0
    elapsed_seconds: float = 0.0

    def record(self, result: SearchResult) -> None:  # type: ignore[override]
        """Fold one result into the statistics (thread-safe)."""
        with self._lock:
            self.queries += 1
            self.rows_returned += len(result.rows)
            self.elapsed_seconds += result.elapsed_seconds
