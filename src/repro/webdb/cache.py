"""Shared query-result cache with in-flight request coalescing.

The paper's headline metric is the number of external top-k queries a
reranked request costs, and its latency model treats every query as a remote
round trip.  Reranking workloads are highly redundant — 1D-BINARY re-probes
overlapping intervals across users, MD Get-Next re-verifies the same regions,
and popular slider presets make many sessions issue near-identical query
sequences — so the single biggest lever for serving heavy traffic is to stop
re-issuing queries the service has already paid for.

:class:`QueryResultCache` turns that redundancy into zero-round-trip answers:

* **canonical keys** — entries are keyed on
  ``(namespace, system_k, SearchQuery.canonical_key())``, so semantically
  identical queries hit regardless of predicate order, and a change of the
  interface's ``system_k`` automatically invalidates every older entry (the
  overflow/valid/underflow trichotomy is only meaningful relative to ``k``);
* **per-interface namespaces** — one cache instance can be shared across every
  data source of a service without results bleeding between databases;
* **containment answering** — a miss on query ``Q`` can be satisfied by any
  stored *covering* (valid/underflow) entry for a superset query
  ``Q' ⊇ Q``: a non-overflow result provably holds **every** tuple matching
  ``Q'``, so filtering its rank-ordered rows through ``Q.matches`` yields
  exactly what the database would return for ``Q`` — same rows, same order,
  same trichotomy — at zero round trips (status ``CONTAINED``).  Overflow
  entries are truncated and must never answer subsets.  A
  :class:`~repro.webdb.boxindex.BoxIndex` per scope finds the candidates;
* **LRU eviction** — bounded memory; freshness comes from catalog deltas
  (:meth:`QueryResultCache.invalidate_delta`), not from a timer;
* **request coalescing** — when several sessions miss on the same key at the
  same time, exactly one remote query is issued and the other callers wait on
  its result (the classic "thundering herd" guard);
* **one shared answer** — an answer is stored once, at zero round-trip cost,
  and that same :class:`~repro.webdb.interface.SearchResult` is handed to
  every ``HIT``, ``CONTAINED`` and ``COALESCED`` caller.  Its rows are
  read-only :data:`~repro.webdb.query.Row`\\ s, so sharing needs no copy; only
  the ``MISS`` caller gets its own result, carrying the real latency;
* **change-checked stores** — every namespace has a
  :class:`~repro.webdb.delta.ChangeLog` (``QueryResultCache.changes``);
  :meth:`QueryResultCache.invalidate_delta` logs the
  :class:`~repro.webdb.delta.CatalogDelta` after retiring only the entries
  whose query it can match.  A query in flight across a delta is stored only
  when no change logged since it was claimed could have changed its answer.
  A source that sends no deltas is refreshed by a restart.

Because a valid/underflow result proves the caller has observed *every* tuple
matching the query, replaying a cached result preserves the paper's
overflow/valid/underflow semantics exactly: the classification is a pure
function of the query, ``system_k``, and the database state no logged
change has moved since.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.webdb.boxindex import BoxIndex
from repro.webdb.counters import Counters
from repro.webdb.delta import CatalogDelta, ChangeLogs
from repro.webdb.interface import Outcome, SearchResult, Settlement, TopKInterface
from repro.webdb.query import SearchQuery

#: ``(namespace, system_k, canonical query key)`` — the full cache identity.
CacheKey = Tuple[str, int, Tuple]

#: ``(namespace, change sequence)`` a derived store is checked against.
Claim = Tuple[str, int]


class FetchStatus(enum.Enum):
    """How a :meth:`QueryResultCache.fetch` call was satisfied."""

    MISS = "miss"  #: this caller issued the remote query
    HIT = "hit"  #: answered from a stored entry, zero round trips
    COALESCED = "coalesced"  #: rode along another caller's in-flight query
    CONTAINED = "contained"  #: derived from a covering superset entry


@dataclass
class CacheStatistics(Counters):
    """Mutable, thread-safe hit/miss/coalesce accounting for one cache.  The
    snapshot's hit rate comes from the same locked read as its counters."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    contained: int = 0
    evictions: int = 0
    delta_invalidations: int = 0
    delta_retired: int = 0
    delta_survivors: int = 0
    delta_blocked_stores: int = 0

    DERIVED_AFTER = {"delta_blocked_stores": "hit_rate"}
    ROUNDED = {"hit_rate": 4}

    @property
    def lookups(self) -> int:
        """Total lookups that were resolved (hits + contained + coalesced +
        misses)."""
        return self.hits + self.contained + self.coalesced + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a fresh remote query."""
        total = self.lookups
        if total == 0:
            return 0.0
        return (self.hits + self.contained + self.coalesced) / total


class _InFlight:
    """Rendezvous for callers coalescing onto one in-flight remote query."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[SearchResult] = None
        self.error: Optional[BaseException] = None


class QueryResultCache:
    """Thread-safe, shared LRU cache of top-k search results.

    Parameters
    ----------
    max_entries:
        LRU capacity; the least-recently-used entry is evicted when a store
        would exceed it.

    A miss may be answered from a stored *covering* (valid/underflow) entry
    of a superset query by filtering its rank-ordered rows through the subset
    query's predicates (status ``CONTAINED``).  Overflow entries are
    truncated and never answer subsets.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, SearchResult]" = OrderedDict()
        self._inflight: Dict[CacheKey, _InFlight] = {}
        #: ``(namespace, system_k)`` → covering (non-overflow) entries usable
        #: for containment answering, keyed like ``_entries``: ``(key, query)``.
        self._covering: Dict[Tuple[str, int], BoxIndex] = defaultdict(BoxIndex)
        #: ``changes(namespace)`` is the namespace's change log: the cache
        #: logs its deltas there under the lock.  A store claimed at
        #: sequence ``s`` is accepted only when every delta logged after
        #: ``s`` provably cannot match the stored query.
        self.changes = ChangeLogs()
        self.statistics = CacheStatistics()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def max_entries(self) -> int:
        """The LRU capacity."""
        return self._max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key_for(namespace: str, query: SearchQuery, system_k: int) -> CacheKey:
        """The canonical cache key of one query against one interface."""
        return (namespace, system_k, query.canonical_key())

    def snapshot(self) -> Dict[str, object]:
        """Counters plus occupancy, for the service statistics panel."""
        payload = self.statistics.snapshot()
        # Nothing serves a stale answer; the key stays, at 0, because
        # ``benchmarks/request_path/spans.py`` reads it.
        payload["stale_serves"] = 0
        with self._lock:
            payload["entries"] = len(self._entries)
            payload["in_flight"] = len(self._inflight)
            payload["covering_entries"] = sum(
                len(index) for index in self._covering.values()
            )
        payload["max_entries"] = self._max_entries
        return payload

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def probe(
        self,
        namespace: str,
        query: SearchQuery,
        system_k: int,
        memoize: bool = True,
    ) -> Optional[Tuple[SearchResult, FetchStatus]]:
        """Resolve ``query`` from stored entries only (no remote issuance).

        Returns ``(result, status)`` where ``status`` is ``HIT`` for an exact
        entry or ``CONTAINED`` for an answer derived from a covering superset
        entry, or ``None`` when neither exists.  Either way the result is the
        stored answer itself, at ``elapsed_seconds=0.0`` — a cached answer
        costs no round trip — and its read-only rows are shared with every
        other reader.  Misses are *not* counted here (:meth:`fetch` owns miss
        accounting); hits and containment answers are.

        ``memoize=False`` makes the probe strictly read-only: a derived
        containment answer is returned but not stored under ``query``'s key.
        Cache-bypassing callers use it so their one-off queries never churn
        the LRU.
        """
        key = self.key_for(namespace, query, system_k)
        with self._lock:
            stored = self._live_entry(key)
            if stored is not None:
                result, status = stored, FetchStatus.HIT
            else:
                derived = self._contained_answer_locked(
                    namespace, query, system_k, key, memoize=memoize
                )
                if derived is None:
                    return None
                result, status = derived, FetchStatus.CONTAINED
        self.statistics.record(
            "hits" if status is FetchStatus.HIT else "contained"
        )
        return result, status

    def store(
        self, namespace: str, query: SearchQuery, system_k: int, result: SearchResult
    ) -> None:
        """Insert one result, evicting the LRU tail past ``max_entries``."""
        key = self.key_for(namespace, query, system_k)
        with self._lock:
            self._store_locked(key, query, result)

    def claim(self, namespaces: Sequence[str]) -> List[Claim]:
        """Each namespace's current change sequence, for a later
        :meth:`store_claimed` of an answer derived from them."""
        with self._lock:
            return [
                (namespace, self.changes(namespace).sequence)
                for namespace in namespaces
            ]

    def store_claimed(
        self,
        namespace: str,
        query: SearchQuery,
        system_k: int,
        result: SearchResult,
        claims: Sequence[Claim],
    ) -> None:
        """:meth:`store` ``result`` unless a claimed namespace was touched by
        a delta that could match ``query`` since its :meth:`claim` — the
        check a fetched MISS passes."""
        key = self.key_for(namespace, query, system_k)
        with self._lock:
            if all(
                self._store_allowed_locked(claimed, query, stamp)
                for claimed, stamp in claims
            ):
                self._store_locked(key, query, result)

    def fetch(
        self,
        namespace: str,
        query: SearchQuery,
        system_k: int,
        compute: Callable[[], SearchResult],
    ) -> Tuple[SearchResult, FetchStatus]:
        """Resolve ``query`` through the cache, coalescing concurrent misses.

        Exactly one caller per key runs ``compute`` (the remote query); every
        concurrent caller blocks on that computation and shares its result.
        When the owning caller fails, one waiter at a time retries ownership,
        so a transient remote failure never poisons the key.

        Returns the result plus how it was satisfied; ``MISS`` results carry
        the real ``elapsed_seconds``; ``HIT``/``CONTAINED``/``COALESCED``
        results cost zero.  A batch of one through :meth:`fetch_many`.
        """
        ((answer, status),) = self.fetch_many(
            namespace, [query], system_k, lambda batch: [compute()]
        )
        if isinstance(answer, Exception):
            raise answer
        return answer, status

    def fetch_many(
        self,
        namespace: str,
        queries: Sequence[SearchQuery],
        system_k: int,
        compute_many: Callable[[List[SearchQuery]], Sequence[Settlement]],
    ) -> List[Tuple[Settlement, FetchStatus]]:
        """Batched :meth:`fetch`: resolve a whole query group through the
        cache with at most one ``compute_many`` round trip.

        Under one lock pass, every query is classified: live entries are
        ``HIT``\\ s, queries a stored covering superset entry can answer are
        ``CONTAINED``, keys another caller is already computing are coalesced
        onto that caller's flight, duplicates within the batch ride on the
        batch's own computation (the later occurrences are ``HIT``\\ s, as if
        the first occurrence's store answered the repeat), and the remaining
        keys are claimed by this caller.  The claimed queries are then
        computed in a single ``compute_many`` call — this is what lets a
        batched interface amortize planning work across a parallel group —
        stored, and published to any coalesced waiters.

        Returns ``(result, status)`` pairs aligned with ``queries``.  An
        error in one position of ``compute_many``'s answer (see
        :meth:`~repro.webdb.interface.TopKInterface.settle_many`) fails that
        flight alone: nothing is stored, its waiters contend for the key
        again, and the caller gets ``(error, MISS)`` there.  When
        ``compute_many`` raises, every claimed flight fails and it propagates.
        """
        materialized = list(queries)
        keys = [self.key_for(namespace, query, system_k) for query in materialized]
        outcomes: List[Optional[Tuple[Settlement, FetchStatus]]] = [None] * len(keys)
        owned: "OrderedDict[CacheKey, _InFlight]" = OrderedDict()
        owner_position: Dict[CacheKey, int] = {}
        duplicates: List[Tuple[int, CacheKey]] = []
        waiting: List[Tuple[int, CacheKey, _InFlight]] = []
        hits = 0
        contained = 0
        with self._lock:
            # A store is dropped when a delta that could match it lands
            # between this claim and the store.
            stamp = self.changes(namespace).sequence
            for position, key in enumerate(keys):
                stored = self._live_entry(key)
                if stored is not None:
                    outcomes[position] = (stored, FetchStatus.HIT)
                    hits += 1
                    continue
                derived = self._contained_answer_locked(
                    namespace, materialized[position], system_k, key
                )
                if derived is not None:
                    outcomes[position] = (derived, FetchStatus.CONTAINED)
                    contained += 1
                    continue
                if key in owned:
                    duplicates.append((position, key))
                    continue
                flight = self._inflight.get(key)
                if flight is not None:
                    waiting.append((position, key, flight))
                    continue
                flight = _InFlight()
                self._inflight[key] = flight
                owned[key] = flight
                owner_position[key] = position
        if hits or contained:
            self.statistics.add(hits=hits, contained=contained)

        owner_results: Dict[CacheKey, Settlement] = {}
        if owned:
            batch = [materialized[owner_position[key]] for key in owned]
            try:
                results = compute_many(batch)
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"compute_many returned {len(results)} results "
                        f"for {len(batch)} queries"
                    )
            except BaseException as error:
                for flight in owned.values():
                    flight.error = error
                with self._lock:
                    for key in owned:
                        self._inflight.pop(key, None)
                for flight in owned.values():
                    flight.done.set()
                raise
            misses = 0
            with self._lock:
                for (key, flight), result in zip(owned.items(), results):
                    self._inflight.pop(key, None)
                    # The MISS caller keeps its own answer, latency included.
                    outcomes[owner_position[key]] = (result, FetchStatus.MISS)
                    if isinstance(result, Exception):
                        flight.error = owner_results[key] = result
                        continue
                    # Everyone else shares the one zero-cost answer stored.
                    flight.result = owner_results[key] = shared = self._at_no_cost(result)
                    misses += 1
                    query = materialized[owner_position[key]]
                    if self._store_allowed_locked(namespace, query, stamp):
                        self._store_locked(key, query, shared)
            for flight in owned.values():
                flight.done.set()
            if misses:
                self.statistics.record("misses", misses)

        hits = 0
        for position, key in duplicates:
            twin = owner_results[key]
            if isinstance(twin, Exception):
                outcomes[position] = (twin, FetchStatus.MISS)
            else:
                outcomes[position] = (twin, FetchStatus.HIT)
                hits += 1
        if hits:
            self.statistics.record("hits", hits)

        for position, key, flight in waiting:
            flight.done.wait()
            if flight.error is None and flight.result is not None:
                self.statistics.record("coalesced")
                outcomes[position] = (flight.result, FetchStatus.COALESCED)
                continue
            # The owning caller failed: contend for ownership of this one key
            # again (one waiter at a time wins it).
            try:
                outcomes[position] = self.fetch_many(
                    namespace, [materialized[position]], system_k, compute_many
                )[0]
            except Exception as error:  # noqa: BLE001 - siblings already answered
                outcomes[position] = (error, FetchStatus.MISS)

        complete: List[Tuple[Settlement, FetchStatus]] = []
        for outcome in outcomes:
            assert outcome is not None, "fetch_many left a query unresolved"
            complete.append(outcome)
        return complete

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def invalidate_delta(self, namespace: str, delta: CatalogDelta) -> int:
        """Retire only the entries of ``namespace`` whose query ``delta`` can
        match; returns the number retired.

        Surviving entries stay servable.  The delta is logged in the
        namespace's change log, so a query claimed before this call is stored
        only if the delta cannot match it.
        """
        if delta.is_empty:
            return 0
        retired = 0
        survivors = 0
        with self._lock:
            self.changes(namespace).record(delta)
            for key in [k for k in self._entries if k[0] == namespace]:
                if delta.may_match_query(self._entries[key].query):
                    del self._entries[key]
                    self._forget_covering_locked(key)
                    retired += 1
                else:
                    survivors += 1
        self.statistics.add(
            delta_invalidations=1,
            delta_retired=retired,
            delta_survivors=survivors,
        )
        return retired

    # ------------------------------------------------------------------ #
    # Internals (call with the lock held)
    # ------------------------------------------------------------------ #
    def _store_allowed_locked(
        self, namespace: str, query: SearchQuery, stamp: int
    ) -> bool:
        """May a result claimed at change sequence ``stamp`` be stored?

        A claim older than the log's tail always drops the store; a delta
        drops it only when it could match the stored query (counted as
        ``delta_blocked_stores``)."""
        log = self.changes(namespace)
        if log.sequence == stamp:
            return True
        _, deltas = log.since(stamp)
        if deltas is None:
            return False
        if any(delta.may_match_query(query) for delta in deltas):
            self.statistics.record("delta_blocked_stores")
            return False
        return True

    def _live_entry(self, key: CacheKey) -> Optional[SearchResult]:
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
        return result

    def _store_locked(self, key: CacheKey, query: SearchQuery, result: SearchResult) -> None:
        if result.degraded:
            # A partial answer is request-scoped by design: caching it would
            # keep serving the degraded rows after the source heals and break
            # byte-identity with the fault-free run.
            return
        self._entries[key] = self._at_no_cost(result)
        self._entries.move_to_end(key)
        if result.covers_query:
            # Only covering (valid/underflow) results may answer subset
            # queries: an overflow result is truncated at ``k`` and proves
            # nothing about which subset tuples the database holds.
            self._covering[key[:2]].add(key, query, (key, query))
        else:
            self._forget_covering_locked(key)
        while len(self._entries) > self._max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._forget_covering_locked(evicted)
            self.statistics.record("evictions")

    def _forget_covering_locked(self, key: CacheKey) -> None:
        self._covering[key[:2]].discard(key)

    def _contained_answer_locked(
        self,
        namespace: str,
        query: SearchQuery,
        system_k: int,
        key: CacheKey,
        memoize: bool = True,
    ) -> Optional[SearchResult]:
        """Derive ``query``'s answer from a stored covering superset entry.

        A covering (valid/underflow) entry for ``Q' ⊇ Q`` holds *every* tuple
        matching ``Q'`` in hidden-rank order, so the tuples matching ``Q``
        are exactly the entry rows passing ``Q.matches`` — in the same rank
        order the database itself would return.  Truncating at ``system_k``
        reproduces the overflow/valid/underflow trichotomy bit for bit.

        With ``memoize`` (the default) the derived result is stored under
        ``key``, and repeats of the subset query become exact hits.
        Cache-bypassing callers (the crawler) pass ``memoize=False``: their
        effectively unique queries would only churn the LRU.  Returns
        ``None`` when no live covering superset exists.
        """
        index = self._covering[(namespace, system_k)]
        for covering_key, covering_query in index.covering(query):
            if not covering_query.contains(query):
                continue
            covering = self._live_entry(covering_key)
            if covering is None:
                continue
            matched = [row for row in covering.rows if query.matches(row)]
            overflow = len(matched) > system_k
            # The covering entry's own read-only rows, shared.
            rows = tuple(matched[:system_k])
            if overflow:
                outcome = Outcome.OVERFLOW
            elif rows:
                outcome = Outcome.VALID
            else:
                outcome = Outcome.UNDERFLOW
            derived = SearchResult(
                query=query,
                rows=rows,
                outcome=outcome,
                system_k=system_k,
                elapsed_seconds=0.0,
            )
            if memoize:
                self._store_locked(key, query, derived)
            return derived
        return None

    @staticmethod
    def _at_no_cost(result: SearchResult) -> SearchResult:
        """``result`` as the cache shares it: the same read-only rows, at
        zero round-trip cost."""
        if result.elapsed_seconds == 0.0:
            return result
        return replace(result, elapsed_seconds=0.0)


#: Generic default names that cannot distinguish two interfaces sharing one
#: cache — they fall through to the identity-derived namespace.
_GENERIC_NAMES = frozenset({"webdb"})


def default_namespace(interface: TopKInterface) -> str:
    """Stable cache namespace for an interface: its ``name`` when it has a
    distinctive one, otherwise an identity-derived fallback.

    The generic ``HiddenWebDatabase`` default name (``"webdb"``) is *not*
    used: two default-named databases sharing one cache would otherwise serve
    each other's results.  Callers sharing a cache across interfaces should
    either name their interfaces uniquely or pass an explicit namespace."""
    name = getattr(interface, "name", None)
    if isinstance(name, str) and name and name not in _GENERIC_NAMES:
        return name
    return f"iface-{id(interface):x}"
