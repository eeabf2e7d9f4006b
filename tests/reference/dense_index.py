"""The seed dense-region index: append-only region lists, linear covering
scans, per-call ``dict`` row copies, no coalescing.

Same public API as :class:`repro.core.dense_index.DenseRegionIndex`; the two
return the same answers wherever both cover a probe (the production index may
additionally cover unions of separately added regions).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.dense_index import DenseRegionIndex, IndexedRegion
from repro.core.regions import HyperRectangle
from repro.core.reranker import QueryReranker
from repro.dataset.schema import Schema
from repro.exceptions import DenseRegionError
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.delta import CatalogDelta
from repro.webdb.query import RangePredicate, SearchQuery

Row = Mapping[str, object]


class NaiveDenseRegionIndex:
    """Linear reference index of crawled dense regions."""

    impl = "naive"

    def __init__(self, schema: Schema, cache: Optional[DenseRegionCache] = None) -> None:
        self._schema = schema
        self._cache = cache
        self._lock = threading.Lock()
        self._regions: Dict[Tuple[str, ...], List[IndexedRegion]] = {}
        self._region_count = 0
        self._tuple_count = 0
        self._lookups = 0
        self._hits = 0
        self._delta_retired = 0
        if cache is not None:
            for stored in cache.regions():
                box = HyperRectangle.from_bounds(stored.bounds)
                self._insert(box, cache.rows_for_region(stored), persist=False)

    @property
    def cache(self) -> Optional[DenseRegionCache]:
        return self._cache

    # -- writes --------------------------------------------------------- #
    def add_region(self, box: HyperRectangle, rows: Sequence[Row]) -> None:
        self._insert(box, rows, persist=True)

    def add_interval(
        self, attribute: str, lower: float, upper: float, rows: Sequence[Row]
    ) -> None:
        self.add_region(HyperRectangle.from_bounds({attribute: (lower, upper)}), rows)

    def _insert(self, box: HyperRectangle, rows: Sequence[Row], persist: bool) -> None:
        region = IndexedRegion(box=box, rows=[dict(row) for row in rows])
        with self._lock:
            self._regions.setdefault(region.attributes, []).append(region)
            self._region_count += 1
            self._tuple_count += len(region.rows)
        if persist and self._cache is not None:
            self._cache.store_region(box.bounds(), list(rows))

    def invalidate_delta(self, delta: CatalogDelta) -> int:
        if delta.is_empty:
            return 0
        retired = 0
        with self._lock:
            for signature in list(self._regions):
                kept: List[IndexedRegion] = []
                for region in self._regions[signature]:
                    if delta.may_intersect_sides(region.box.sides):
                        retired += 1
                        self._region_count -= 1
                        self._tuple_count -= len(region.rows)
                    else:
                        kept.append(region)
                if kept:
                    self._regions[signature] = kept
                else:
                    del self._regions[signature]
            self._delta_retired += retired
        if self._cache is not None:
            for stored in self._cache.regions():
                if delta.may_intersect_bounds(stored.bounds):
                    self._cache.drop_region(stored.region_id)
        return retired

    # -- lookups -------------------------------------------------------- #
    def _find_locked(self, box: HyperRectangle) -> Optional[IndexedRegion]:
        for region in self._regions.get(tuple(sorted(box.attributes)), []):
            if region.box.covers(box):
                return region
        return None

    def lookup(
        self, box: HyperRectangle, base_query: Optional[SearchQuery] = None
    ) -> Optional[List[Row]]:
        with self._lock:
            region = self._find_locked(box)
            self._lookups += 1
            if region is not None:
                self._hits += 1
        if region is None:
            return None
        return self._select(region, box, base_query)

    def lookup_interval(
        self,
        attribute: str,
        interval: RangePredicate,
        base_query: Optional[SearchQuery] = None,
    ) -> Optional[List[Row]]:
        return self.lookup(HyperRectangle((interval,)), base_query)

    def rows_in(
        self, box: HyperRectangle, base_query: Optional[SearchQuery] = None
    ) -> List[Row]:
        with self._lock:
            region = self._find_locked(box)
        if region is None:
            raise DenseRegionError(f"region not covered by the index: {box.describe()}")
        return self._select(region, box, base_query)

    @staticmethod
    def _select(
        region: IndexedRegion, box: HyperRectangle, base_query: Optional[SearchQuery]
    ) -> List[Row]:
        selected = []
        for row in region.rows:
            if not box.contains(row):
                continue
            if base_query is not None and not base_query.matches(row):
                continue
            selected.append(dict(row))
        return selected

    # -- introspection -------------------------------------------------- #
    def region_count(self) -> int:
        with self._lock:
            return self._region_count

    def tuple_count(self) -> int:
        with self._lock:
            return self._tuple_count

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "impl": self.impl,
                "regions": self._region_count,
                "tuples": self._tuple_count,
                "coalesced": 0,
                "lookups": self._lookups,
                "hits": self._hits,
                "delta_retired": self._delta_retired,
                "per_signature": {
                    "+".join(sig): len(regions)
                    for sig, regions in self._regions.items()
                },
                "persistent": self._cache is not None,
            }


class NaiveIndexReranker(QueryReranker):
    """A :class:`QueryReranker` whose dense-region index is the linear
    reference (at construction and after every rebuild)."""

    def _make_dense_index(self, cache: Optional[DenseRegionCache]) -> DenseRegionIndex:
        return NaiveDenseRegionIndex(self._interface.schema, cache=cache)  # type: ignore[return-value]
