"""On-the-fly dense-region index.

``(1D/MD)-RERANK`` differ from the BINARY algorithms in one way: when the
candidate region has become *dense* — its width is a tiny fraction of the
attribute domain yet its queries still overflow — they stop probing, crawl the
region completely through the public interface, and remember that they did.
Future requests inside a remembered region read it at zero external queries,
so the (potentially expensive) crawl is amortized across queries and across
users.

The crawl's answers are the region's rows: every crawl query goes through the
request's :class:`~repro.core.parallel.QueryEngine`, so the engine's result
cache stores each answer.  :class:`DenseRegionIndex` therefore keeps no row.
It keeps which closed boxes were crawled whole, one
:class:`~repro.webdb.boxindex.BoxIndex` per attribute signature, stored as
they were added.  A hit in :func:`dense_rows` crawls the registered covering
box again through the request's engine: every answer is a cache hit, so the
hit costs zero queries.  The cache's freshness rule covers the rows: a delta
that can reach a box's crawl entries retires the box
(:meth:`DenseRegionIndex.invalidate_delta`) and the entries together.  An
evicted entry makes a hit pay queries, and the rows it returns are still the
live ones.

Boxes are stored *without* the user's filter predicates: they describe the
database's content inside an attribute-space box, so any user query can reuse
them by filtering locally.  Every box is also persisted, without its rows, to
a :class:`~repro.sqlstore.dense_cache.DenseRegionCache` when one is given (the
paper's MySQL store): a restarted service loads its boxes, and
:meth:`~repro.core.reranker.QueryReranker.verify_dense_cache` re-crawls them
into the result cache before the first request.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.parallel import QueryEngine
from repro.core.regions import closed_bounds
from repro.core.stats import RerankStatistics
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.boxindex import BoxIndex
from repro.webdb.counters import Counters
from repro.webdb.delta import CatalogDelta
from repro.webdb.interface import SearchResult
from repro.webdb.query import RangePredicate, Row, SearchQuery


@dataclass
class DenseIndexCounters(Counters):
    """Event counters of one :class:`DenseRegionIndex`: covered lookups and
    their hits, regions retired by deltas."""

    lookups: int = 0
    hits: int = 0
    delta_retired: int = 0


class DenseRegionIndex:
    """Shared registry of the boxes crawled whole (see the module docstring)."""

    def __init__(self, cache: Optional[DenseRegionCache] = None) -> None:
        self._cache = cache
        self._lock = threading.Lock()
        #: Per attribute signature; a box is its own key.
        self._indexes: Dict[Tuple[str, ...], BoxIndex] = {}
        self._events = DenseIndexCounters()
        if cache is not None:
            for stored in cache.regions():
                self._register(SearchQuery.build(ranges=stored.bounds))

    @property
    def cache(self) -> Optional[DenseRegionCache]:
        """The persistent region store behind this index, if any."""
        return self._cache

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def add_region(self, box: SearchQuery, rows: Sequence[Mapping[str, object]] = ()) -> None:
        """Register ``box`` as crawled whole, and persist it when a region
        store is attached.  ``rows`` is ignored: the crawl's answers are the
        result cache's entries."""
        self._register(box)
        if self._cache is not None:
            self._cache.store_region(closed_bounds(box))

    def add_interval(
        self, attribute: str, lower: float, upper: float, rows: Sequence[Mapping[str, object]] = ()
    ) -> None:
        """:meth:`add_region` for a 1D region."""
        self.add_region(SearchQuery.build(ranges={attribute: (lower, upper)}), rows)

    def _register(self, box: SearchQuery) -> None:
        signature = tuple(sorted(box.constrained_attributes))
        with self._lock:
            self._indexes.setdefault(signature, BoxIndex()).add(box, box, box)

    def invalidate_delta(self, delta: CatalogDelta) -> int:
        """Retire the boxes a catalog delta can reach; returns the number
        retired.

        A box is retired when a touched tuple version lies inside it: the
        same versions reach the box's crawl entries, which the result cache
        retires.  Persisted copies of retired regions are dropped from the
        :class:`~repro.sqlstore.dense_cache.DenseRegionCache` as well, so a
        warm restart does not resurrect them.
        """
        if delta.is_empty:
            return 0
        retired = 0
        with self._lock:
            for signature, index in list(self._indexes.items()):
                for box in list(index):
                    if delta.may_match_query(box):
                        index.discard(box)
                        retired += 1
                if not len(index):
                    del self._indexes[signature]
        self._events.record("delta_retired", retired)
        if self._cache is not None:
            for stored in self._cache.regions():
                if delta.may_match_query(SearchQuery.build(ranges=stored.bounds)):
                    self._cache.drop_region(stored.region_id)
        return retired

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def lookup(self, box: SearchQuery) -> Optional[SearchQuery]:
        """A registered box that covers ``box``, or ``None``; counted in
        :meth:`describe`'s ``lookups`` and ``hits``.

        Coverage is judged on the same attribute signature only: a stored
        ``price`` interval covers a requested ``price`` sub-interval, but a
        stored ``(price, carat)`` box is not used to answer a pure ``price``
        question."""
        with self._lock:
            index = self._indexes.get(tuple(sorted(box.constrained_attributes)))
            # Every box the walk yields contains ``box`` on each of its sides.
            covering = None if index is None else next(index.covering(box), None)
        self._events.add(lookups=1, hits=covering is not None)
        return covering

    def lookup_interval(self, attribute: str, interval: RangePredicate) -> Optional[SearchQuery]:
        """:meth:`lookup` for a 1D region."""
        return self.lookup(SearchQuery((interval,)))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def region_count(self) -> int:
        """Number of registered boxes."""
        with self._lock:
            return sum(len(index) for index in self._indexes.values())

    def describe(self) -> Dict[str, object]:
        """Summary used by the service's statistics endpoint."""
        with self._lock:
            per_signature = {"+".join(sig): len(index) for sig, index in self._indexes.items()}
        return {
            "regions": sum(per_signature.values()),
            **self._events.snapshot(),
            "per_signature": per_signature,
            "persistent": self._cache is not None,
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

    When ``index`` holds a box covering ``box``, that box is crawled again
    through ``engine``: its answers are in the result cache, so this costs
    no query unless an entry was evicted.  On a miss, ``ask`` — the region
    with the user's filters, which may thin it below ``system_k`` — gets one
    query: when its answer proves it, its observed rows are the answer.
    Otherwise ``box`` is crawled *without* the filters, so any later query
    can reuse it, and registered.  Rows read from a registered box (after a
    crawl or not) count as a ``dense_index_hits`` on ``statistics``.  A
    crawl that received a degraded answer saw only the live shards: its rows
    answer this request, but the box is not registered.
    """
    covering = index.lookup(box)
    if covering is not None:
        rows, _ = HiddenDatabaseCrawler(engine).crawl(covering)
        statistics.record("dense_index_hits")
        return [row for row in rows if box.matches(row) and base_query.matches(row)], None
    answer = engine.search(ask) if ask is not None else None
    if answer is not None and answer.proves_query:
        return list(answer.observed_rows), answer
    degraded = engine.statistics.read("degraded_results")
    crawled = crawl_region(engine, statistics, box)
    if engine.statistics.read("degraded_results") == degraded:
        index.add_region(box)
        statistics.record("dense_index_hits")
    return [row for row in crawled if base_query.matches(row)], answer
