"""Query engine: the single gateway between the algorithms and a web database.

Every external query a reranking algorithm issues goes through
:class:`QueryEngine`, which provides

* **parallel execution** of query groups — the paper issues the verification
  queries that cover the region of interest, and the two sub-space searches of
  an MD Get-Next, concurrently to hide the web database's latency.  A group
  goes out as one ``settle_many`` call on the source, which settles each
  query on its own: an in-process database amortizes plan setup across the
  batch, a remote adapter overlaps its round trips on the pool it owns.  The
  engine holds no threads;
* **shared result caching** — when a :class:`~repro.webdb.cache.QueryResultCache`
  is attached, queries the service has already paid for (in this session or
  any other session over the same source) are answered from memory at zero
  budget and zero simulated latency, and identical in-flight queries coalesce
  onto a single round trip;
* **accounting** — per-iteration group sizes (the paper's Fig. 2 metric),
  external-query counts, simulated latency (a group costs one round trip,
  i.e. the *maximum* of its members' latencies, not the sum);
* **budget enforcement** — an optional per-request cap on external queries
  (a caller-supplied :class:`~repro.webdb.counters.QueryBudget`).  The
  charge is atomic check-then-issue: a group that would exceed the budget
  raises *before* any of its queries runs and leaves ``budget.used`` exactly
  equal to the number of queries actually issued.

Keeping all of this in one object means the algorithm implementations stay
free of threading and bookkeeping concerns.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.core.stats import RerankStatistics
from repro.webdb.cache import FetchStatus, QueryResultCache, default_namespace
from repro.webdb.counters import QueryBudget
from repro.webdb.interface import SearchResult, TopKInterface
from repro.webdb.query import SearchQuery


class QueryOutcome(enum.Enum):
    """How one query of a group was settled.  Only ``ISSUED`` is paid for."""

    ISSUED = "issued"  #: this engine's round trip answered
    HIT = "hit"  #: answered from a stored entry
    CONTAINED = "contained"  #: derived from a covering superset entry
    COALESCED = "coalesced"  #: rode along another caller's round trip
    FAILED = "failed"  #: the round trip raised


_OUTCOME_OF = {
    FetchStatus.MISS: QueryOutcome.ISSUED,
    FetchStatus.HIT: QueryOutcome.HIT,
    FetchStatus.CONTAINED: QueryOutcome.CONTAINED,
    FetchStatus.COALESCED: QueryOutcome.COALESCED,
}

#: One query's answer (``None`` when it has none) and how it was settled.
Settled = Tuple[Optional[SearchResult], QueryOutcome]


class QueryEngine:
    """Issues query groups against one top-k interface, each as one
    round trip, with accounting and optional shared result caching (the
    crawler's verification engine runs without a cache)."""

    def __init__(
        self,
        interface: TopKInterface,
        statistics: Optional[RerankStatistics] = None,
        budget: Optional[QueryBudget] = None,
        result_cache: Optional[QueryResultCache] = None,
        cache_namespace: Optional[str] = None,
    ) -> None:
        self._interface = interface
        self.statistics = statistics or RerankStatistics()
        self._budget = budget or QueryBudget()
        self._cache = result_cache
        self._cache_namespace = cache_namespace or default_namespace(interface)
        # Read per row by the MD algorithms: resolve the interface's property
        # chain (stack -> database -> schema) once.
        self._key_column = interface.key_column
        # The guards' shared counters (``None`` over an unguarded source),
        # read around each group to attribute retries to this request.
        self._resilience_stats = interface.resilience_statistics

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def interface(self) -> TopKInterface:
        """The underlying top-k interface."""
        return self._interface

    @property
    def budget(self) -> QueryBudget:
        """The query budget shared by every algorithm using this engine."""
        return self._budget

    @property
    def result_cache(self) -> Optional[QueryResultCache]:
        """The shared result cache, or ``None`` for an uncached engine."""
        return self._cache

    @property
    def cache_namespace(self) -> str:
        """This engine's namespace within the shared result cache."""
        return self._cache_namespace

    @property
    def schema(self):
        """Schema of the underlying interface."""
        return self._interface.schema

    @property
    def system_k(self) -> int:
        """``system-k`` of the underlying interface."""
        return self._interface.system_k

    @property
    def key_column(self) -> str:
        """Tuple identifier column of the underlying interface."""
        return self._key_column

    def queries_issued(self) -> int:
        """External queries issued through this engine."""
        return self.statistics.external_queries

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def search(self, query: SearchQuery, bypass_cache: bool = False) -> SearchResult:
        """Issue a single query (an iteration of group size one)."""
        return self.search_group([query], bypass_cache=bypass_cache)[0]

    def search_group(
        self, queries: Sequence[SearchQuery], bypass_cache: bool = False
    ) -> List[SearchResult]:
        """Issue a group of queries belonging to one algorithm iteration.

        With a result cache attached, each query is first resolved against the
        cache: exact hits and containment answers (derived from a covering
        superset entry) cost zero budget and zero simulated latency, and
        misses identical to an in-flight query (from any session sharing the
        cache) coalesce onto that query's round trip.  ``bypass_cache`` makes the
        cache read-only for the group — hits are still reused (the crawl's
        root region query is typically the overflowing query that was just
        paid for), but misses are issued directly and never stored.  The
        crawler uses it: its finely partitioned sub-region queries are
        effectively unique and would only churn the LRU.

        The budget is charged atomically for the queries that actually need a
        round trip *before* any of them is issued; a group that trips the
        budget raises with ``budget.used`` unchanged.

        The misses go out as one batch, so the group's simulated latency is
        the *maximum* over its issued queries: one round trip, whatever the
        group's size.
        """
        if not queries:
            return []
        use_cache = self._cache is not None and not bypass_cache

        # Phase 1: resolve what we can from the shared cache (zero cost) —
        # exact hits and containment answers derived from covering superset
        # entries alike — then from the source's own caches (a federation
        # whose every target shard can answer from its namespace).  Bypassed
        # groups still *read* the caches; they stay strictly read-only: no
        # memoization of derived answers (the crawler's queries would churn
        # the LRU).
        settled: List[Optional[Settled]] = [None] * len(queries)
        pending: List[int] = []
        for index, query in enumerate(queries):
            probed = (
                self._cache.probe(
                    self._cache_namespace,
                    query,
                    self._interface.system_k,
                    memoize=use_cache,
                )
                if self._cache is not None
                else None
            )
            if probed is None:
                probed = self._interface.probe(query, memoize=use_cache)
            if probed is None:
                pending.append(index)
            else:
                settled[index] = (probed[0], _OUTCOME_OF[probed[1]])

        # Phase 2: charge the budget for the round trips we are about to pay,
        # atomically, before issuing anything.
        self._budget.charge(len(pending))

        # Phase 3: issue the misses as one batch through the source's
        # ``settle_many``.  Each query of the batch settles on its own.
        guards = self._resilience_stats if pending else None
        retries_before = guards.read("retries") if guards is not None else 0
        error: Optional[BaseException] = None
        if pending:
            issued, error = self._issue([queries[index] for index in pending], use_cache)
            for index, outcome in zip(pending, issued):
                settled[index] = outcome

        # Phase 4: the one settlement.  Everything charged up front that did
        # not end as this engine's answered round trip — failed, coalesced
        # onto another caller's trip, or answered by an entry stored between
        # probe and fetch — is handed back before any
        # exception propagates, so ``budget.used`` always equals the round
        # trips that answered.
        tally = Counter(outcome for _, outcome in settled)  # type: ignore[misc]
        self._budget.refund(len(pending) - tally[QueryOutcome.ISSUED])
        if error is not None:
            raise error

        # Phase 5: accounting.  Only real round trips count as external
        # queries and simulated latency; a fully cached group costs nothing.
        results: List[SearchResult] = []
        issued_latencies: List[float] = []
        for result, outcome in settled:  # type: ignore[misc]
            assert result is not None
            results.append(result)
            if outcome is QueryOutcome.ISSUED:
                issued_latencies.append(result.elapsed_seconds)
        # Best-effort attribution: the guards' counters are shared across
        # concurrent requests, so the delta may include a neighbour's
        # retries; the aggregate across all requests stays exact.
        retried = guards.read("retries") - retries_before if guards is not None else 0
        self.statistics.record_iteration(
            len(issued_latencies), max(issued_latencies, default=0.0)
        )
        self.statistics.add(
            result_cache_hits=tally[QueryOutcome.HIT],
            contained_answers=tally[QueryOutcome.CONTAINED],
            coalesced_queries=tally[QueryOutcome.COALESCED],
            degraded_results=sum(1 for result in results if result.degraded),
            retried_queries=retried,
        )
        return results

    # ------------------------------------------------------------------ #
    # Issue
    # ------------------------------------------------------------------ #
    def _issue(
        self, queries: List[SearchQuery], use_cache: bool
    ) -> Tuple[List[Settled], Optional[BaseException]]:
        """One ``settle_many`` call for ``queries``, through the coalescing
        cache when enabled (which also reuses duplicates within the batch):
        one outcome per query, plus the first error (raised by the caller
        after settlement).  A query the source could not answer fails on its
        own while its answered siblings stay issued, paid and cached; a
        raising call answered nothing."""
        settle = self._interface.settle_many
        try:
            if use_cache:
                assert self._cache is not None
                resolved = self._cache.fetch_many(
                    self._cache_namespace, queries, self._interface.system_k, settle
                )
            else:
                resolved = [(answer, FetchStatus.MISS) for answer in settle(queries)]
        except BaseException as error:  # noqa: BLE001 - re-raised after settlement
            resolved = [(error, FetchStatus.MISS)] * len(queries)
        settled: List[Settled] = []
        first_error: Optional[BaseException] = None
        for answer, status in resolved:
            if not isinstance(answer, BaseException):
                settled.append((answer, _OUTCOME_OF[status]))
                continue
            settled.append((None, QueryOutcome.FAILED))
            if first_error is None:
                first_error = answer
        return settled, first_error
