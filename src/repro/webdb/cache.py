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
* **containment answering** — :meth:`QueryResultCache.probe` answers a
  query ``Q`` from any stored *covering* (valid/underflow) entry for a
  superset query ``Q' ⊇ Q``: a non-overflow result provably holds **every**
  tuple matching ``Q'``, so filtering its rank-ordered rows through
  ``Q.matches`` yields exactly what the database would return for ``Q`` —
  same rows, same order, same trichotomy — at zero round trips (status
  ``CONTAINED``).  Overflow entries are truncated and must never answer
  subsets.  A :class:`~repro.webdb.boxindex.BoxIndex` per scope finds the
  candidates.  Containment is the probe's job alone: a caller probes before
  it issues, so :meth:`QueryResultCache.fetch_many` rechecks only exact
  entries;
* **coalesced regions** — proving answers of an unsharded namespace that
  abut on one attribute and agree on the rest are stored again as one
  *region entry* over their union (see :meth:`QueryResultCache._coalesce_locked`),
  so a descent's leaves reassemble the boxes it split, and containment
  answers any query inside one; so is a crawled dense box
  (:meth:`QueryResultCache.store_region`).  A region is keyed apart from the site's
  answer to the same box, so an exact hit still returns the site's page;
* **LRU eviction** — bounded memory; freshness comes from catalog deltas
  (:meth:`QueryResultCache.invalidate_delta`), not from a timer;
* **request coalescing** — when several sessions miss on the same key at the
  same time, exactly one remote query is issued and the other callers wait on
  its result (the classic "thundering herd" guard);
* **one entry per federated query** — it keeps the shard pages its answer
  was merged from.  A degraded merge keeps its live shards' pages, a reached
  entry its untouched shards' pages: as parts, never as an answer.  The
  probe is the one read of a namespace: without an answer, its one walk of
  the covering index hands back the query's :class:`Parts`, which the query
  engine has the federation merge or reuse in its scatter;
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
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.webdb.boxindex import BoxIndex
from repro.webdb.counters import Counters
from repro.webdb.delta import CatalogDelta, ChangeLogs
from repro.webdb.interface import Outcome, SearchResult, Settlement, TopKInterface
from repro.webdb.query import RangePredicate, Row, SearchQuery

#: ``(namespace, system_k, canonical query key)`` — the full cache identity;
#: a region's canonical key ends in :data:`_REGION`.
CacheKey = Tuple[str, int, Tuple]
_REGION = "region"

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


@dataclass(frozen=True)
class Parts:
    """What :meth:`QueryResultCache.probe` read of a query no stored answer
    answers: its stored shard ``pages`` by shard index, the change sequence
    ``stamp`` they were read at, and the shards whose page is ``exact`` (the
    query's own entry's, not filtered from a containing entry's)."""

    stamp: int
    pages: Dict[int, SearchResult]
    exact: FrozenSet[int]


class _InFlight:
    """Rendezvous for callers coalescing onto one in-flight remote query: its
    owner holds ``done`` from the claim until it publishes the answer."""

    def __init__(self) -> None:
        self.done = threading.Lock()
        self.done.acquire()
        self.result: Optional[SearchResult] = None
        self.error: Optional[BaseException] = None


class QueryResultCache:
    """Thread-safe, shared LRU cache of top-k search results (see the module
    docstring).  ``max_entries`` is the LRU capacity: the least-recently-used
    entry is evicted when a store would exceed it."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, SearchResult]" = OrderedDict()
        self._inflight: Dict[CacheKey, _InFlight] = {}
        #: ``(namespace, system_k)`` → entries with a covering answer or shard
        #: page, keyed like ``_entries``: ``(key, query)``.
        self._covering: Dict[Tuple[str, int], BoxIndex] = defaultdict(BoxIndex)
        #: Namespace → advertised ``(lower, upper)`` per numeric attribute;
        #: only a registered namespace's answers coalesce.
        self._domains: Dict[str, Dict[str, Tuple[float, float]]] = {}
        #: The hash of each side (:func:`_sides`) of each coalescing entry
        #: → the key of the last entry stored with that side.
        self._edges: Dict[int, CacheKey] = {}
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

    def regions(self, namespace: str) -> List[SearchQuery]:
        """The boxes of ``namespace``'s region entries."""
        with self._lock:
            return [entry.query for key, entry in self._entries.items()
                    if len(key[2]) == 3 and key[0] == namespace]

    def register_domains(self, namespace: str, schema) -> None:
        """Let the answers of ``namespace``, an unsharded source with
        ``schema``, coalesce into regions (a no-op once registered)."""
        with self._lock:
            if namespace not in self._domains:
                numeric = [a for a in schema.attributes if a.is_numeric]
                self._domains[namespace] = {a.name: (a.lower, a.upper) for a in numeric}

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def probe(
        self,
        namespace: str,
        query: SearchQuery,
        system_k: int,
    ) -> Union[Tuple[SearchResult, FetchStatus], Parts, None]:
        """Resolve ``query`` from stored entries only (no remote issuance), in
        one lock pass: ``(result, HIT)`` for an exact answer, else one walk of
        the covering index, which yields ``(result, CONTAINED)`` for an answer
        derived from the first containing answer or region.  The result is the stored
        answer itself at ``elapsed_seconds=0.0`` — a cached answer costs no
        round trip — its read-only rows shared with every reader.  A derived
        answer is stored under ``query``'s key, so a repeat is an exact hit.

        Without an answer, the same walk has gathered ``query``'s shard
        parts: the exact entry's pages, whatever their outcome, else a
        containing entry's covering pages, filtered as containment filters.
        They come back as :class:`Parts` (``None`` when there are none).
        Hits and containment answers are counted here, misses by
        :meth:`fetch_many`; callers probe before they issue.
        """
        key = self.key_for(namespace, query, system_k)
        with self._lock:
            answer = self._live_entry(key)
            if answer is not None:
                self.statistics.record("hits")
                return answer, FetchStatus.HIT
            entry = self._entries.get(key)
            pages = {} if entry is None else {i: self._at_no_cost(p) for i, p in entry.shard_pages}
            exact, givers = frozenset(pages), []
            index = self._covering[(namespace, system_k)]
            for covering_key, covering_query in index.covering(query):
                covering = self._entries[covering_key]
                # A covering answer or a region answers; any other entry lends its covering pages.
                answers = covering.covers_query or _coalesces(covering)
                lent = () if answers else [
                    (i, page) for i, page in covering.shard_pages
                    if page.covers_query and i not in pages
                ]
                if not (answers or lent) or not covering_query.contains(query):
                    continue
                if answers:
                    self._entries.move_to_end(covering_key)
                    derived = self._filtered(covering.observed_rows, query, system_k)
                    self._store_locked(key, query, derived)
                    self.statistics.record("contained")
                    return derived, FetchStatus.CONTAINED
                givers.append(covering_key)
                for i, page in lent:
                    pages[i] = self._filtered(page.rows, query, page.system_k)
            if not pages:
                return None
            for used in ([key] if entry is not None else []) + givers:
                self._entries.move_to_end(used)
            return Parts(self.changes(namespace).sequence, pages, exact)

    def store_merged(
        self, namespace: str, query: SearchQuery, system_k: int, merged: SearchResult, parts: Parts
    ) -> Tuple[SearchResult, FetchStatus]:
        """Count ``merged``, the answer merged from ``parts`` alone, as a
        ``HIT`` when every part it was merged from is exact, else as
        ``CONTAINED``, and store it as a fetched miss is stored: unless a
        delta that could match ``query`` was logged since the parts were
        read."""
        derived = any(i not in parts.exact for i, _ in merged.shard_pages)
        key = self.key_for(namespace, query, system_k)
        with self._lock:
            if self._store_allowed_locked(namespace, query, parts.stamp):
                self._store_locked(key, query, merged)
        self.statistics.record("contained" if derived else "hits")
        return merged, FetchStatus.CONTAINED if derived else FetchStatus.HIT

    def store(
        self, namespace: str, query: SearchQuery, system_k: int, result: SearchResult
    ) -> None:
        """Insert one result, evicting the LRU tail past ``max_entries``."""
        key = self.key_for(namespace, query, system_k)
        with self._lock:
            self._store_locked(key, query, result)

    def store_region(
        self, namespace: str, box: SearchQuery, system_k: int, rows: Sequence[Row],
        since: Optional[int] = None,
    ) -> bool:
        """Store ``rows``, every tuple inside ``box``, as one region entry,
        unless a delta logged since change sequence ``since`` could match
        ``box``; returns whether it was stored."""
        with self._lock:
            if since is not None and not self._store_allowed_locked(namespace, box, since):
                return False
            key = (namespace, system_k, box.canonical_key() + (_REGION,))
            self._store_locked(key, box, _answer(box, tuple(rows), system_k))
        return True

    def absorb(self, other: "QueryResultCache", since: int) -> None:
        """Store every entry of ``other``, least recently used first, as a
        fetched miss is stored: unless a delta logged in its namespace since
        change sequence ``since`` could match its query."""
        with other._lock:
            entries = list(other._entries.items())
        with self._lock:
            for key, result in entries:
                if self._store_allowed_locked(key[0], result.query, since):
                    self._store_locked(key, result.query, result)

    def fetch(
        self,
        namespace: str,
        query: SearchQuery,
        system_k: int,
        compute: Callable[[], SearchResult],
    ) -> Tuple[SearchResult, FetchStatus]:
        """:meth:`fetch_many` for one query, with ``compute`` as its remote
        query: the result plus how it was satisfied (``MISS`` carries the real
        ``elapsed_seconds``; ``HIT`` and ``COALESCED`` cost zero), or the
        computation's error raised."""
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
        since: Optional[int] = None,
    ) -> List[Tuple[Settlement, FetchStatus]]:
        """Resolve a query group through the cache with at most one
        ``compute_many`` round trip, coalescing concurrent misses.

        Under one lock pass, every query is classified: live entries are
        ``HIT``\\ s (an answer stored since the caller's :meth:`probe`), keys
        another caller is already computing are coalesced onto that caller's
        flight, duplicates within the batch ride on the batch's own
        computation (the later occurrences are ``HIT``\\ s, as if the first
        occurrence's store answered the repeat), and the remaining keys are
        claimed by this caller; the covering index is not walked (the caller
        has just probed).  The claimed queries are then computed in a single
        ``compute_many`` call — this is what lets a batched interface
        amortize planning work across a parallel group — stored, and
        published to any coalesced waiters.  When the owner's flight fails,
        one waiter at a time retries ownership, so a transient remote failure
        never poisons the key.

        Returns ``(result, status)`` pairs aligned with ``queries``.  An
        error in one position of ``compute_many``'s answer (see
        :meth:`~repro.webdb.interface.TopKInterface.settle_many`) fails that
        flight alone: nothing is stored, its waiters contend for the key
        again, and the caller gets ``(error, MISS)`` there.  When
        ``compute_many`` raises, every claimed flight fails and it propagates.
        A batch that reuses shard parts its caller's :meth:`probe` read passes
        their ``since`` stamp: its answers are stored only if no delta logged
        since then could match them.
        """
        materialized = list(queries)
        keys = [self.key_for(namespace, query, system_k) for query in materialized]
        outcomes: List[Optional[Tuple[Settlement, FetchStatus]]] = [None] * len(keys)
        owned: "OrderedDict[CacheKey, _InFlight]" = OrderedDict()
        owner_position: Dict[CacheKey, int] = {}
        duplicates: List[Tuple[int, CacheKey]] = []
        waiting: List[Tuple[int, CacheKey, _InFlight]] = []
        hits = 0
        with self._lock:
            # A store is dropped when a delta that could match it lands
            # between this claim (or the parts' read) and the store.
            stamp = self.changes(namespace).sequence if since is None else since
            for position, key in enumerate(keys):
                stored = self._live_entry(key)
                if stored is not None:
                    outcomes[position] = (stored, FetchStatus.HIT)
                    hits += 1
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
        if hits:
            self.statistics.record("hits", hits)

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
                    flight.done.release()
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
                flight.done.release()
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
            with flight.done:  # free once the owner has published
                pass
            if flight.error is None and flight.result is not None:
                self.statistics.record("coalesced")
                outcomes[position] = (flight.result, FetchStatus.COALESCED)
                continue
            # The owning caller failed: contend for ownership of this one key
            # again (one waiter at a time wins it).
            try:
                outcomes[position] = self.fetch_many(
                    namespace, [materialized[position]], system_k, compute_many, since
                )[0]
            except Exception as error:  # noqa: BLE001 - siblings already answered
                outcomes[position] = (error, FetchStatus.MISS)

        assert None not in outcomes, "fetch_many left a query unresolved"
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def invalidate_delta(self, namespace: str, delta: CatalogDelta) -> int:
        """Retire only the entries of ``namespace`` whose query ``delta`` can
        match; returns the number retired.  A retired federated entry keeps,
        as parts, the pages of the shards whose part of ``delta`` cannot
        match its query.

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
                stored = self._entries[key]
                if not delta.may_match_query(stored.query):
                    survivors += 1
                    continue
                retired += 1
                touched = {i for i, part in delta.shard_deltas if part.may_match_query(stored.query)}
                kept = [(i, page) for i, page in stored.shard_pages if i not in touched]
                if not (kept and delta.shard_deltas):
                    self._forget_locked(key)
                    continue
                # Assigned in place, so the kept parts keep the entry's LRU slot.
                self._entries[key] = _parts_only(stored, kept)
                if not any(page.covers_query for _, page in kept):
                    self._covering[key[:2]].discard(key)
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
        """The answer stored under ``key`` (an entry of shard parts is none)."""
        result = self._entries.get(key)
        if result is None or not _is_answer(result):
            return None
        self._entries.move_to_end(key)
        return result

    def _store_locked(self, key: CacheKey, query: SearchQuery, result: SearchResult) -> None:
        if not _is_answer(result):
            # A partial answer served after the heal would break byte-identity:
            # only its live shards' pages are kept, as parts, never over one.
            existing = self._entries.get(key)
            if not result.shard_pages or (existing is not None and _is_answer(existing)):
                return
            result = _parts_only(result, result.shard_pages)
        if key in self._entries:
            self._unlink_locked(key, self._entries[key])
        self._entries[key] = result = self._at_no_cost(result)
        self._entries.move_to_end(key)
        coalesces = _coalesces(result)
        if coalesces or result.covers_query or any(p.covers_query for _, p in result.shard_pages):
            # Only covering (valid/underflow) results, regions and pages may
            # answer subset queries: an overflow result is truncated at ``k``
            # and proves nothing about which subset tuples the database holds.
            self._covering[key[:2]].add(key, query, (key, query))
        else:
            self._covering[key[:2]].discard(key)
        while len(self._entries) > self._max_entries:
            self._forget_locked(next(iter(self._entries)))
            self.statistics.record("evictions")
        if coalesces and key[0] in self._domains:
            self._coalesce_locked(key, result)

    def _forget_locked(self, key: CacheKey) -> None:
        """Remove the entry under ``key`` from every structure."""
        self._unlink_locked(key, self._entries.pop(key))
        self._covering[key[:2]].discard(key)

    def _unlink_locked(self, key: CacheKey, entry: SearchResult) -> None:
        """Drop the sides ``entry``, stored under ``key``, still owns."""
        for side in map(hash, _sides(key)) if _coalesces(entry) else ():
            if self._edges.get(side) == key:
                del self._edges[side]

    def _twin_locked(self, namespace: str, system_k: int, box: Tuple):
        """The first entry abutting ``box`` (canonical ranges, memberships) on
        one attribute and agreeing with it elsewhere, as ``(its key, other
        ranges, low side, high side, whether it is the high side)``."""
        ranges, memberships = box
        for position, own in enumerate(ranges):
            rest = ranges[:position] + ranges[position + 1 :]
            above, below = (False, own[2], not own[4]), (True, own[1], not own[3])
            for side in (above, below):
                edge = (namespace, system_k, rest, memberships, own[0]) + side
                found = self._edges.get(hash(edge))
                # A side is indexed by its hash: the twin must really have it.
                if found is not None and edge in _sides(found):
                    other = next(theirs for theirs in found[2][0] if theirs[0] == own[0])
                    return (found, rest) + ((own, other, True) if side is above else (other, own, False))
        return None

    def _coalesce_locked(self, key: CacheKey, result: SearchResult) -> None:
        """Record the sides of ``result``, just stored under ``key``, merge it
        with twin after twin (:meth:`_twin_locked`), short of a union stored
        already (as a region or a proving answer), and store the union as
        one region entry, rows in merge order, low side first; the regions
        it covers are forgotten."""
        namespace, system_k, box, memberships = key[0], key[1], key[2][:2], key[2][1]
        self._edges.update(dict.fromkeys(map(hash, _sides(key)), key))
        twin = self._twin_locked(namespace, system_k, box)
        rows, covered, region = result.observed_rows, [], None
        while twin is not None:
            found, rest, low, high, above = twin
            union = (low[0], low[1], high[2], low[3], high[4])
            domain = self._domains[namespace].get(union[0])
            # A range spanning the attribute's whole domain is no range: an
            # exclusive bound sorts inside the inclusive one at its value.
            spans = domain is not None and (union[1], not union[3]) <= (domain[0], False) and (
                union[2], union[4]) >= (domain[1], True)
            box = (rest if spans else tuple(sorted(rest + (union,))), memberships)
            plain = self._entries.get((namespace, system_k, box))
            if (namespace, system_k, box + (_REGION,)) in self._entries or (
                plain is not None and _coalesces(plain)
            ):
                break
            other = self._entries[found].observed_rows
            rows = rows + other if above else other + rows
            covered.append(found)
            region = box
            twin = self._twin_locked(namespace, system_k, box)
        if region is None:
            return
        for merged in covered:
            if len(merged[2]) == 3:
                self._forget_locked(merged)
        query = SearchQuery(tuple(RangePredicate(*r) for r in region[0]), result.query.memberships)
        region_key = (namespace, system_k, region + (_REGION,))
        self._store_locked(region_key, query, _answer(query, rows, system_k))

    @staticmethod
    def _filtered(rows, query: SearchQuery, system_k: int) -> SearchResult:
        """``query``'s answer, bit for bit, from a containing query's covering
        rows (the covering entry's own read-only rows, shared)."""
        return _answer(query, tuple(row for row in rows if query.matches(row)), system_k)

    @staticmethod
    def _at_no_cost(result: SearchResult) -> SearchResult:
        """``result`` as the cache shares it: every field kept, the same
        read-only rows, at zero round-trip cost.  The frozen answer's fields
        are copied as they are, without re-running its constructor."""
        if result.elapsed_seconds == 0.0:
            return result
        shared = object.__new__(SearchResult)
        shared.__dict__.update(result.__dict__, elapsed_seconds=0.0)
        return shared


def _parts_only(result: SearchResult, pages) -> SearchResult:
    """The entry keeping ``result``'s shard ``pages`` as parts, no answer: no rows,
    ``OVERFLOW`` (never covering), not :func:`_is_answer`, ``missing_shards`` as was."""
    return replace(result, rows=(), outcome=Outcome.OVERFLOW, degraded=True,
                   complete_rows=None, shard_pages=tuple(pages))


def _sides(key: CacheKey):
    """The sides of the box stored under ``key``, two per range: what a box
    abutting it there shares with it (scope, other ranges, memberships,
    attribute), then ``(is upper, bound, inclusive)``."""
    (ranges, memberships), scope = key[2][:2], key[:2]
    for position, (attribute, lower, upper, include_lower, include_upper) in enumerate(ranges):
        rest = (*scope, ranges[:position] + ranges[position + 1 :], memberships, attribute)
        yield from (rest + (False, lower, include_lower), rest + (True, upper, include_upper))


def _is_answer(entry: SearchResult) -> bool:
    """May ``entry`` be served?  A degraded merge or a parts-only entry may not."""
    return not entry.degraded


def _coalesces(entry: SearchResult) -> bool:
    """Does ``entry`` coalesce, and answer the queries it contains from every
    row it keeps: an unsharded, servable answer that proves its query?  (A
    federated complete merge lends its shard pages instead.)"""
    return entry.proves_query and not (entry.degraded or entry.shard_pages)


def _answer(query: SearchQuery, rows: Tuple, system_k: int) -> SearchResult:
    """``query``'s answer at no cost from ``rows``, every tuple matching it."""
    overflow = len(rows) > system_k
    outcome = Outcome.OVERFLOW if overflow else Outcome.VALID if rows else Outcome.UNDERFLOW
    return SearchResult(query=query, rows=rows[:system_k], outcome=outcome, system_k=system_k,
                        complete_rows=rows if overflow else None)


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
