"""On-the-fly dense-region index.

``(1D/MD)-RERANK`` differ from the BINARY algorithms in one way: when the
candidate region has become *dense* — its width is a tiny fraction of the
attribute domain yet its queries still overflow — they stop probing, crawl the
region completely through the public interface, and remember that they did.
Future requests inside a remembered region read it at zero external queries,
so the (potentially expensive) crawl is amortized across queries and across
users.

The query-result cache is that memory: :func:`dense_rows` stores a crawled
box, with every row inside it, as one *region entry*
(:meth:`~repro.webdb.cache.QueryResultCache.store_region`), and the cache's
containment walk answers any query inside it, whatever its attribute
signature.  A region entry is an entry like any other: the LRU may evict it,
it coalesces with abutting regions, and a delta that can match its box
retires it.  :class:`DenseRegionIndex` keeps no record of its own.

Boxes are stored *without* the user's filter predicates, so any user query
can reuse them by filtering locally.  Every box is also persisted, without
its rows, to a :class:`~repro.sqlstore.dense_cache.DenseRegionCache` when one
is given (the paper's MySQL store): a restarted service's
:meth:`~repro.core.reranker.QueryReranker.verify_dense_cache` re-crawls each
stored box into a region entry before the first request.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.parallel import QueryEngine
from repro.core.regions import closed_bounds
from repro.core.stats import RerankStatistics
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.cache import QueryResultCache
from repro.webdb.counters import Counters
from repro.webdb.delta import CatalogDelta
from repro.webdb.interface import SearchResult
from repro.webdb.query import RangePredicate, Row, SearchQuery


@dataclass
class DenseIndexCounters(Counters):
    """Event counters of one :class:`DenseRegionIndex`: dense crawls and
    lookups, those the cache answered, region entries deltas reached."""

    lookups: int = 0
    hits: int = 0
    delta_retired: int = 0


class DenseRegionIndex:
    """The region entries of ``namespace`` in ``result_cache``, each box
    persisted to ``store`` when one is given (see the module docstring)."""

    def __init__(
        self, result_cache: QueryResultCache, namespace: str, store: Optional[DenseRegionCache] = None
    ) -> None:
        self._cache = result_cache
        self._namespace = namespace
        self._store = store
        self._events = DenseIndexCounters()

    @property
    def store(self) -> Optional[DenseRegionCache]:
        """The persistent region store behind this index, if any."""
        return self._store

    def stamp(self) -> int:
        """The namespace's change sequence: :meth:`add_region`'s ``since``."""
        return self._cache.changes(self._namespace).sequence

    def add_region(
        self, box: SearchQuery, rows: Sequence[Row], system_k: int, since: Optional[int] = None
    ) -> None:
        """Store ``box`` with ``rows``, every tuple inside it, as a region
        entry and persist the box, unless a delta logged since change
        sequence ``since`` can match it."""
        stored = self._cache.store_region(self._namespace, box, system_k, rows, since)
        if stored and self._store is not None:
            self._store.store_region(closed_bounds(box))

    def add_interval(
        self, attribute: str, lower: float, upper: float, rows: Sequence[Row], system_k: int
    ) -> None:
        """:meth:`add_region` for a 1D region."""
        self.add_region(SearchQuery.build(ranges={attribute: (lower, upper)}), rows, system_k)

    def invalidate_delta(self, delta: CatalogDelta) -> int:
        """Drop the persisted boxes ``delta`` can reach; returns how many
        region entries it reaches, which the result cache retires next."""
        if delta.is_empty:
            return 0
        for stored in self._store.regions() if self._store is not None else ():
            if delta.may_match_query(SearchQuery.build(ranges=stored.bounds)):
                self._store.drop_region(stored.region_id)
        retired = sum(map(delta.may_match_query, self._cache.regions(self._namespace)))
        self._events.record("delta_retired", retired)
        return retired

    def record_read(self, hit: bool) -> None:
        """Count one dense crawl or lookup, a ``hit`` when the cache answered it."""
        self._events.add(lookups=1, hits=hit)

    def lookup(self, box: SearchQuery) -> Optional[SearchQuery]:
        """A region entry's box containing ``box``, or ``None``; counted."""
        covering = next((r for r in self._cache.regions(self._namespace) if r.contains(box)), None)
        self.record_read(covering is not None)
        return covering

    def lookup_interval(self, attribute: str, interval: RangePredicate) -> Optional[SearchQuery]:
        """:meth:`lookup` for a 1D region."""
        return self.lookup(SearchQuery((interval,)))

    def region_count(self) -> int:
        """Number of the namespace's region entries."""
        return len(self._cache.regions(self._namespace))

    def describe(self) -> Dict[str, object]:
        """Summary used by the service's statistics endpoint."""
        regions = self._cache.regions(self._namespace)
        signatures = Counter("+".join(sorted(box.constrained_attributes)) for box in regions)
        return {
            "regions": len(regions),
            **self._events.snapshot(),
            "per_signature": dict(signatures),
            "persistent": self._store is not None,
        }


#: A still-overflowing region whose widest side has shrunk below this
#: fraction of its attribute's domain is *dense*: every algorithm crawls it
#: instead of splitting it further (RERANK indexes what it crawls, the
#: others do not).
DENSE_RATIO_THRESHOLD = 0.005

#: Split depth after which every algorithm treats a still-overflowing region
#: as dense however wide it still is: a guard against adversarial value
#: distributions, not a tuning knob.
MAX_BINARY_ROUNDS = 40


def is_dense(relative_width: float, depth: int) -> bool:
    """Whether a still-overflowing region ``depth`` splits deep, whose widest
    side spans ``relative_width`` of its domain, is crawled rather than
    split: the one rule of the 1D and MD algorithms."""
    return relative_width < DENSE_RATIO_THRESHOLD or depth >= MAX_BINARY_ROUNDS


def crawl_region(
    engine: QueryEngine, statistics: RerankStatistics, query: SearchQuery
) -> List[Row]:
    """Every tuple matching ``query``, crawled through ``engine``; counted
    on ``statistics`` as one dense region built and its crawled tuples."""
    rows, crawl = HiddenDatabaseCrawler(engine).crawl(query)
    statistics.add(dense_regions_built=1, crawled_tuples=crawl.tuples_retrieved)
    return rows


def dense_rows(
    engine: QueryEngine,
    statistics: RerankStatistics,
    index: DenseRegionIndex,
    box: SearchQuery,
    base_query: SearchQuery,
    ask: Optional[SearchQuery] = None,
) -> Tuple[List[Row], Optional[SearchResult]]:
    """The rows inside ``box`` that match ``base_query``, and the answer to
    ``ask`` when it was asked.

    ``ask`` — the region with the user's filters, which may thin it below
    ``system_k`` — is asked first: when its answer proves it, its observed
    rows are the answer.  Otherwise ``box`` is crawled *without* the
    filters, so any later query can reuse it: free inside a region entry
    (a ``dense_index_hits`` on ``statistics``).  A crawl that paid counts a
    dense region built and stores ``box`` with its rows through ``index``,
    unless it received a degraded answer: then it saw only the live shards.
    """
    answer = engine.search(ask) if ask is not None else None
    if answer is not None and answer.proves_query:
        return list(answer.observed_rows), answer
    since, paid = index.stamp(), engine.queries_issued()
    degraded = engine.statistics.read("degraded_results")
    rows, crawl = HiddenDatabaseCrawler(engine).crawl(box)
    hit = engine.queries_issued() == paid
    index.record_read(hit)
    if hit:
        statistics.record("dense_index_hits")
    else:
        statistics.add(dense_regions_built=1, crawled_tuples=crawl.tuples_retrieved)
        if engine.statistics.read("degraded_results") == degraded:
            index.add_region(box, rows, engine.system_k, since)
    return [row for row in rows if base_query.matches(row)], answer
