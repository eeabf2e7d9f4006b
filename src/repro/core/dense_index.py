"""On-the-fly dense-region index.

``(1D/MD)-RERANK`` differ from the BINARY algorithms in one way: when the
candidate region has become *dense* — its width is a tiny fraction of the
attribute domain yet its queries still overflow — they stop probing, crawl the
region completely through the public interface, and remember its contents.
Future lookups that fall inside a remembered region are answered locally with
zero external queries, so the (potentially expensive) crawl is amortized
across queries and across users.

:class:`DenseRegionIndex` is the in-memory hot path of that idea.  It stores
1D intervals and MD boxes together with their crawled tuples, answers
"is this region fully covered?" and "give me the covered tuples matching this
filter" questions, and optionally persists every region to a
:class:`~repro.sqlstore.dense_cache.DenseRegionCache` (the paper's MySQL
store) so the index survives restarts and is shared between service workers.

Regions are stored *without* the user's filter predicates: they describe the
database's content inside an attribute-space box, so any user query can reuse
them by filtering locally.

The structure is sublinear.  Regions are stored per attribute signature in a
:class:`~repro.webdb.boxindex.BoxIndex`, so a covering lookup is a bisect plus
a walk over the regions straddling the probe (one step for the disjoint 1D
intervals).  Adjacent and overlapping regions of the same signature are
*coalesced* on insert — union of rows, widened box — which keeps the index
small and lets :meth:`~DenseRegionIndex.lookup` succeed on unions of
separately crawled regions (fewer external queries, not just faster lookups).
Rows inside a region are deduplicated by key, sorted on the region's
primary axis, and kept as the read-only rows the crawl returned (a row that
arrives writable, from a caller or the SQLite reload, is frozen once on
insert); lookups return those same objects, and range selections are bisect
spans.

The seed's reference behaviour — append-only region lists, linear covering
scans, per-call ``dict`` row copies, no coalescing — is kept as a test oracle
with the same public API in ``tests/reference/dense_index.py``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.parallel import QueryEngine
from repro.core.regions import HyperRectangle
from repro.core.stats import RerankStatistics
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.dataset.schema import Schema, is_numeric
from repro.exceptions import DenseRegionError
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.boxindex import BoxIndex
from repro.webdb.counters import Counters
from repro.webdb.delta import CatalogDelta
from repro.webdb.interface import SearchResult
from repro.webdb.query import RangePredicate, Row, SearchQuery, freeze_row


@dataclass
class IndexedRegion:
    """One covered region: a closed box plus every database tuple inside it.

    ``attributes`` (the sorted signature) is computed once at construction —
    it used to be a property re-sorting the signature on every coverage
    probe, which showed up on the lookup hot path.
    """

    box: HyperRectangle
    rows: List[Row]
    attributes: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.attributes = tuple(sorted(self.box.attributes))


def _union_interval(
    a: RangePredicate, b: RangePredicate
) -> Optional[RangePredicate]:
    """Union of two ranges on the same attribute when it is itself a range
    (they overlap or touch without a gap), else ``None``."""
    if (b.lower, not b.include_lower) < (a.lower, not a.include_lower):
        a, b = b, a
    if b.lower > a.upper or (
        b.lower == a.upper and not (a.include_upper or b.include_lower)
    ):
        return None
    include_lower = a.include_lower or (b.lower == a.lower and b.include_lower)
    if b.upper > a.upper:
        upper, include_upper = b.upper, b.include_upper
    elif b.upper < a.upper:
        upper, include_upper = a.upper, a.include_upper
    else:
        upper, include_upper = a.upper, a.include_upper or b.include_upper
    return RangePredicate(a.attribute, a.lower, upper, include_lower, include_upper)


def _union_box(a: HyperRectangle, b: HyperRectangle) -> Optional[HyperRectangle]:
    """Union of two boxes over the same attributes when it is itself a box.

    That is the case when one box covers the other, or when they agree on
    every side except one and overlap or touch on that free side (the shape
    binary splitting produces).  Returns ``None`` otherwise — merging to the
    bounding box would claim coverage of space that was never crawled."""
    if a.covers(b):
        return a
    if b.covers(a):
        return b
    free: Optional[str] = None
    for side in a.sides:
        other = b.side(side.attribute)
        if side == other:
            continue
        if free is not None:
            return None
        free = side.attribute
    if free is None:  # identical boxes are caught by the covers() checks
        return a
    merged = _union_interval(a.side(free), b.side(free))
    if merged is None:
        return None
    return a.replace_side(merged)


def _coalesce_interval(
    regions: Sequence["_SortedRegion"], region: "_SortedRegion"
) -> Tuple[List["_SortedRegion"], HyperRectangle]:
    """The 1D regions a new interval merges with, and the merged box.

    Stored 1D intervals are pairwise disjoint with a real gap between
    neighbours (anything else was coalesced on insert) and ``regions`` is in
    lower-bound order, so only a run of bisect neighbours can merge."""
    primary = region.attributes[0]
    merged_side = region.box.side(primary)
    position = bisect_right(
        regions, merged_side.lower, key=lambda stored: stored.box.side(primary).lower
    )
    absorbed: List[_SortedRegion] = []
    for neighbour in regions[position:]:
        union = _union_interval(merged_side, neighbour.box.side(primary))
        if union is None:
            break
        merged_side = union
        absorbed.append(neighbour)
    for neighbour in reversed(regions[:position]):
        union = _union_interval(neighbour.box.side(primary), merged_side)
        if union is None:
            break
        merged_side = union
        absorbed.append(neighbour)
    return absorbed, HyperRectangle((merged_side,))


def _coalesce_box(
    regions: Sequence["_SortedRegion"], region: "_SortedRegion"
) -> Tuple[List["_SortedRegion"], HyperRectangle]:
    """The MD regions a new box merges with, repeatedly, and the merged box."""
    remaining = list(regions)
    absorbed: List[_SortedRegion] = []
    merged_box = region.box
    changed = True
    while changed:
        changed = False
        for index, existing in enumerate(remaining):
            union = _union_box(existing.box, merged_box)
            if union is None:
                continue
            merged_box = union
            absorbed.append(existing)
            del remaining[index]
            changed = True
            break
    return absorbed, merged_box


@dataclass
class _SortedRegion(IndexedRegion):
    """An :class:`IndexedRegion` whose rows are deduplicated by key, and
    sorted on the signature's primary axis.

    ``values`` holds the primary-axis value of each row in the sorted
    (numeric) prefix of ``rows`` so range selections are bisect spans; rows
    with a non-numeric primary value sit in an unsorted tail — they can never
    match a box on this signature, so selections skip them entirely.
    """

    key_column: str = "id"
    values: List[float] = field(init=False, default_factory=list)

    @staticmethod
    def build(
        box: HyperRectangle,
        rows_by_key: Dict[object, Row],
        key_column: str,
    ) -> "_SortedRegion":
        primary = tuple(sorted(box.attributes))[0]
        sortable: List[Tuple[float, Row]] = []
        tail: List[Row] = []
        for row in rows_by_key.values():
            value = row.get(primary)
            if is_numeric(value):
                sortable.append((float(value), row))  # type: ignore[arg-type]
            else:
                tail.append(row)
        sortable.sort(key=lambda pair: pair[0])
        region = _SortedRegion(
            box=box,
            rows=[row for _, row in sortable] + tail,
            key_column=key_column,
        )
        region.values = [value for value, _ in sortable]
        return region

    def merge(
        self, others: Sequence["_SortedRegion"], box: HyperRectangle
    ) -> "_SortedRegion":
        """A new region over ``box`` holding the key-deduplicated union of
        this region's rows and every absorbed region's rows."""
        rows_by_key: Dict[object, Row] = {}
        for other in others:
            for row in other.rows:
                rows_by_key[row[self.key_column]] = row
        for row in self.rows:
            rows_by_key[row[self.key_column]] = row
        return _SortedRegion.build(box, rows_by_key, self.key_column)

    def select(
        self,
        box: HyperRectangle,
        base_query: Optional[SearchQuery],
    ) -> List[Row]:
        """Rows inside ``box`` matching ``base_query``, as shared immutable
        references — a bisect span on the primary axis, then a filter."""
        side = box.side(self.attributes[0])
        start = bisect_left(self.values, side.lower)
        stop = bisect_right(self.values, side.upper, lo=start)
        selected = []
        for row in self.rows[start:stop]:
            if not box.contains(row):
                continue
            if base_query is not None and not base_query.matches(row):
                continue
            selected.append(row)
        return selected


@dataclass
class DenseIndexCounters(Counters):
    """Event counters of one :class:`DenseRegionIndex`: regions merged on
    insert, covered lookups and their hits, regions retired by deltas."""

    coalesced: int = 0
    lookups: int = 0
    hits: int = 0
    delta_retired: int = 0


class DenseRegionIndex:
    """Shared index of crawled dense regions (sublinear, coalescing)."""

    #: Reported by :meth:`describe`; the reference oracle reports its own.
    impl = "interval"

    def __init__(
        self,
        schema: Schema,
        cache: Optional[DenseRegionCache] = None,
    ) -> None:
        self._schema = schema
        self._cache = cache
        self._lock = threading.Lock()
        #: Per signature; a region is keyed by its ``id`` (held, so unique).
        self._indexes: Dict[Tuple[str, ...], BoxIndex] = {}
        # Occupancy, maintained incrementally so a snapshot never re-sums the
        # regions; the event counters live in ``_events``.
        self._region_count = 0
        self._tuple_count = 0
        self._events = DenseIndexCounters()
        if cache is not None:
            self._load_from_cache()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> Optional[DenseRegionCache]:
        """The persistent region store behind this index, if any."""
        return self._cache

    def _load_from_cache(self) -> None:
        assert self._cache is not None
        for stored in self._cache.regions():
            box = HyperRectangle.from_bounds(stored.bounds)
            rows = self._cache.rows_for_region(stored)
            self._insert(box, rows, persist=False)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def add_region(self, box: HyperRectangle, rows: Sequence[Mapping[str, object]]) -> None:
        """Register a crawled region.

        ``rows`` must be *every* database tuple inside ``box`` — that is the
        invariant the covering lookups rely on; it is the crawler's job to
        guarantee it.
        """
        self._insert(box, rows, persist=True)

    def add_interval(
        self,
        attribute: str,
        lower: float,
        upper: float,
        rows: Sequence[Mapping[str, object]],
    ) -> None:
        """Convenience wrapper for 1D regions."""
        self.add_region(HyperRectangle.from_bounds({attribute: (lower, upper)}), rows)

    def _insert(
        self, box: HyperRectangle, rows: Sequence[Mapping[str, object]], persist: bool
    ) -> None:
        key_column = self._schema.key
        rows_by_key: Dict[object, Row] = {}
        for row in rows:
            rows_by_key[row[key_column]] = freeze_row(row)
        region = _SortedRegion.build(box, rows_by_key, key_column)
        with self._lock:
            index = self._indexes.get(region.attributes)
            if index is None:
                index = self._indexes[region.attributes] = BoxIndex()
            coalesce = _coalesce_interval if len(region.attributes) == 1 else _coalesce_box
            absorbed, merged_box = coalesce(list(index), region)
            if absorbed:
                region = region.merge(absorbed, merged_box)
                for existing in absorbed:
                    index.discard(id(existing))
                    self._tuple_count -= len(existing.rows)
            index.add(id(region), region.box, region)
            self._region_count += 1 - len(absorbed)
            self._tuple_count += len(region.rows)
        if absorbed:
            self._events.record("coalesced", len(absorbed))
        if persist and self._cache is not None:
            self._cache.store_region(box.bounds(), list(rows))

    def invalidate_delta(self, delta: CatalogDelta) -> int:
        """Retire only the regions whose box a catalog delta can intersect;
        returns the number retired.

        A region's crawled row set is stale iff a touched tuple version lies
        inside its box (a new/changed tuple the region is missing, or a
        deleted/moved tuple it still holds).  Regions whose box provably
        excludes every touched version keep answering lookups.  Persisted
        copies of retired regions are dropped from the
        :class:`~repro.sqlstore.dense_cache.DenseRegionCache` as well, so a
        warm restart does not resurrect them.
        """
        if delta.is_empty:
            return 0
        retired = 0
        with self._lock:
            for signature, index in list(self._indexes.items()):
                for region in list(index):
                    if delta.may_intersect_sides(region.box.sides):
                        index.discard(id(region))
                        retired += 1
                        self._tuple_count -= len(region.rows)
                if not len(index):
                    del self._indexes[signature]
            self._region_count -= retired
        self._events.record("delta_retired", retired)
        if self._cache is not None:
            for stored in self._cache.regions():
                if delta.may_intersect_bounds(stored.bounds):
                    self._cache.drop_region(stored.region_id)
        return retired

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def _find_locked(self, box: HyperRectangle) -> Optional["_SortedRegion"]:
        """A stored region that fully covers ``box``, or ``None``.

        Coverage is judged on the same attribute signature only: a stored
        ``price`` interval covers a requested ``price`` sub-interval, but a
        stored ``(price, carat)`` box is not used to answer a pure ``price``
        question (it does cover it logically, but the bookkeeping cost is not
        worth it at this catalog scale)."""
        index = self._indexes.get(tuple(sorted(box.attributes)))
        # Every region the walk yields contains ``box`` on each of its sides.
        return None if index is None else next(index.covering(box), None)

    def lookup(
        self,
        box: HyperRectangle,
        base_query: Optional[SearchQuery] = None,
    ) -> Optional[List[Row]]:
        """Covered lookup: every known tuple inside ``box`` that also
        matches ``base_query``, or ``None`` when ``box`` is not covered.

        One signature walk decides coverage *and* produces the answer.  A
        covered-but-empty answer is ``[]``, never ``None``.  Rows are shared
        immutable mappings (no copies).  Counted in :meth:`describe`'s
        ``lookups`` and ``hits``.
        """
        with self._lock:
            region = self._find_locked(box)
        self._events.add(lookups=1, hits=region is not None)
        if region is None:
            return None
        return region.select(box, base_query)

    def lookup_interval(
        self,
        attribute: str,
        interval: RangePredicate,
        base_query: Optional[SearchQuery] = None,
    ) -> Optional[List[Row]]:
        """1D convenience wrapper around :meth:`lookup`."""
        return self.lookup(HyperRectangle((interval,)), base_query)

    def rows_in(
        self,
        box: HyperRectangle,
        base_query: Optional[SearchQuery] = None,
    ) -> List[Row]:
        """Every known tuple inside ``box`` that also matches ``base_query``.

        Raises :class:`DenseRegionError` when ``box`` is not covered; unlike
        :meth:`lookup` it is not counted (:func:`dense_rows` reads a region
        back with it right after indexing it).
        """
        with self._lock:
            region = self._find_locked(box)
        if region is None:
            raise DenseRegionError(f"region not covered by the index: {box.describe()}")
        return region.select(box, base_query)

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #
    def region_count(self) -> int:
        """Number of stored regions (after coalescing), maintained
        incrementally — O(1)."""
        with self._lock:
            return self._region_count

    def tuple_count(self) -> int:
        """Number of stored tuples across all regions (with multiplicity
        across regions; deduplicated by key within a coalesced region),
        maintained incrementally — O(1)."""
        with self._lock:
            return self._tuple_count

    def describe(self) -> Dict[str, object]:
        """Summary used by the service's statistics endpoint."""
        with self._lock:
            regions, tuples = self._region_count, self._tuple_count
            per_signature = {
                "+".join(sig): len(index)
                for sig, index in self._indexes.items()
            }
        return {
            "impl": self.impl,
            "regions": regions,
            "tuples": tuples,
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
    box: HyperRectangle,
    base_query: SearchQuery,
    ask: Optional[SearchQuery] = None,
) -> Tuple[List[Row], Optional[SearchResult]]:
    """The rows inside ``box`` that match ``base_query``, and the answer to
    ``ask`` when it was asked.

    ``box`` is looked up in ``index`` first.  On a miss, ``ask`` — the region
    with the user's filters, which may thin it below ``system_k`` — gets one
    query: when its answer proves it, its observed rows are the answer.
    Otherwise ``box`` is crawled *without* the filters, so any later query
    can reuse it, indexed, and read back.  Rows served by the index (after a
    crawl or not) count as a ``dense_index_hits`` on ``statistics``.  A crawl
    that received a degraded answer saw only the live shards: its rows
    answer this request, but the region is not indexed.
    """
    rows = index.lookup(box, base_query)
    if rows is not None:
        statistics.record("dense_index_hits")
        return rows, None
    answer = engine.search(ask) if ask is not None else None
    if answer is not None and answer.proves_query:
        return list(answer.observed_rows), answer
    degraded = engine.statistics.read("degraded_results")
    crawled = crawl_region(engine, statistics, SearchQuery(box.sides, ()))
    if engine.statistics.read("degraded_results") != degraded:
        return [row for row in crawled if base_query.matches(row)], answer
    index.add_region(box, crawled)
    statistics.record("dense_index_hits")
    return index.rows_in(box, base_query), answer
