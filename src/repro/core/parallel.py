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

from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.stats import RerankStatistics
from repro.webdb.cache import FetchStatus, Parts, QueryResultCache, default_namespace
from repro.webdb.counters import QueryBudget
from repro.webdb.federation import FederatedInterface
from repro.webdb.interface import SearchResult, Settlement, TopKInterface
from repro.webdb.query import SearchQuery


#: One query's answer and how the cache settled it.  A ``None`` answer is a
#: failed round trip; only a ``MISS`` with an answer — this engine's round
#: trip answered — is paid for.
Settled = Tuple[Optional[SearchResult], FetchStatus]


class QueryEngine:
    """Issues query groups against one top-k interface, each as one
    round trip, with accounting and optional shared result caching."""

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
        if result_cache is not None and not isinstance(interface, FederatedInterface):
            # An unsharded source's proving answers coalesce into regions.
            result_cache.register_domains(self._cache_namespace, interface.schema)
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
    def search(self, query: SearchQuery) -> SearchResult:
        """Issue a single query (an iteration of group size one)."""
        return self.search_group([query])[0]

    def search_group(self, queries: Sequence[SearchQuery]) -> List[SearchResult]:
        """Issue a group of queries belonging to one algorithm iteration —
        a Get-Next step's verification queries or one level of a crawl alike.

        With a result cache attached, each query is first resolved against the
        cache: exact hits and containment answers (derived from a covering
        superset entry) cost zero budget and zero simulated latency, and
        misses identical to an in-flight query (from any session sharing the
        cache) coalesce onto that query's round trip.  Over a federation a
        miss's stored shard parts are merged into a cache answer when they
        cover every target shard, else handed to the scatter.  Every answer
        is then stored (a degraded one only as its live shards' pages), so a
        second crawl of the same region is answered from memory.

        The budget is charged atomically for the queries that actually need a
        round trip *before* any of them is issued; a group that trips the
        budget raises with ``budget.used`` unchanged.

        The misses go out as one batch, so the group's simulated latency is
        the *maximum* over its issued queries: one round trip, whatever the
        group's size.
        """
        if not queries:
            return []

        # Phase 1: resolve what we can from the shared cache (zero cost) —
        # exact hits, containment answers, and a federated query whose every
        # target shard has a stored part, merged by the source.  A miss keeps
        # the parts its probe read for the scatter.
        settled: List[Optional[Settled]] = [None] * len(queries)
        pending: List[int] = []
        parts: Dict[Tuple, Mapping[int, SearchResult]] = {}
        since: Optional[int] = None  # when the first (oldest) parts were read
        cache, namespace, system_k = self._cache, self._cache_namespace, self._interface.system_k
        for index, query in enumerate(queries):
            probed = None if cache is None else cache.probe(namespace, query, system_k)
            if isinstance(probed, Parts):
                merged = self._interface.merge_parts(query, probed.pages)
                if merged is None:
                    parts[query.canonical_key()] = probed.pages
                    since = probed.stamp if since is None else since
                    probed = None
                else:
                    probed = cache.store_merged(namespace, query, system_k, merged, probed)
            if probed is None:
                pending.append(index)
            else:
                settled[index] = probed

        # Phase 2: charge the budget for the round trips we are about to pay,
        # atomically, before issuing anything.
        self._budget.charge(len(pending))

        # Phase 3: issue the misses as one batch through the source's
        # ``settle_many``.  Each query of the batch settles on its own.
        guards = self._resilience_stats if pending else None
        retries_before = guards.read("retries") if guards is not None else 0
        error: Optional[BaseException] = None
        if pending:
            issued, error = self._issue([queries[index] for index in pending], parts, since)
            for index, settlement in zip(pending, issued):
                settled[index] = settlement

        # Phase 4: the one settlement.  Everything charged up front that did
        # not end as this engine's answered round trip — failed, coalesced
        # onto another caller's trip, or answered by an entry stored between
        # probe and fetch — is handed back before any
        # exception propagates, so ``budget.used`` always equals the round
        # trips that answered.
        tally = Counter(
            status for answer, status in settled if answer is not None  # type: ignore[misc]
        )
        self._budget.refund(len(pending) - tally[FetchStatus.MISS])
        if error is not None:
            raise error

        # Phase 5: accounting.  Only real round trips count as external
        # queries and simulated latency; a fully cached group costs nothing.
        results: List[SearchResult] = []
        issued_latencies: List[float] = []
        for result, status in settled:  # type: ignore[misc]
            assert result is not None
            results.append(result)
            if status is FetchStatus.MISS:
                issued_latencies.append(result.elapsed_seconds)
        # Best-effort attribution: the guards' counters are shared across
        # concurrent requests, so the delta may include a neighbour's
        # retries; the aggregate across all requests stays exact.
        retried = guards.read("retries") - retries_before if guards is not None else 0
        self.statistics.record_iteration(
            len(issued_latencies), max(issued_latencies, default=0.0)
        )
        self.statistics.add(
            result_cache_hits=tally[FetchStatus.HIT],
            contained_answers=tally[FetchStatus.CONTAINED],
            coalesced_queries=tally[FetchStatus.COALESCED],
            degraded_results=sum(1 for result in results if result.degraded),
            retried_queries=retried,
        )
        return results

    # ------------------------------------------------------------------ #
    # Issue
    # ------------------------------------------------------------------ #
    def _issue(
        self,
        queries: List[SearchQuery],
        parts: Dict[Tuple, Mapping[int, SearchResult]],
        since: Optional[int],
    ) -> Tuple[List[Settled], Optional[BaseException]]:
        """One ``settle_many`` call for ``queries``, through the cache's
        ``fetch_many`` when one is attached (it rechecks exact entries,
        coalesces concurrent misses, reuses duplicates within the batch and
        stores every answer; the group was just probed, so it derives no
        containment answer), else settled directly: one ``Settled`` per query,
        plus the first error (raised by the caller after settlement).  The
        shard ``parts`` the probe read, by canonical key, go with the batch,
        whose answers are stored only if no delta logged ``since`` that read
        could match them.  A query the source could not answer fails on its
        own while its answered siblings stay issued, paid and cached; a
        raising call answered nothing."""
        settle, cache = self._interface.settle_many, self._cache
        if parts:
            def settle(batch: List[SearchQuery]) -> List[Settlement]:
                found = [parts.get(query.canonical_key(), {}) for query in batch]
                return self._interface.settle_many(batch, found)
        try:
            if cache is not None:
                resolved = cache.fetch_many(
                    self._cache_namespace, queries, self._interface.system_k, settle, since
                )
            else:
                resolved = [(answer, FetchStatus.MISS) for answer in settle(queries)]
        except BaseException as error:  # noqa: BLE001 - re-raised after settlement
            resolved = [(error, FetchStatus.MISS)] * len(queries)
        settled: List[Settled] = []
        first_error: Optional[BaseException] = None
        for answer, status in resolved:
            failed = isinstance(answer, BaseException)
            settled.append((None if failed else answer, status))
            if failed and first_error is None:
                first_error = answer
        return settled, first_error

