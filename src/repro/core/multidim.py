"""Multi-dimensional query reranking: MD-BASELINE, MD-BINARY, MD-RERANK.

The user ranks by a linear combination of two or more attributes.  A Get-Next
call must find, among the tuples matching the filter query, the eligible tuple
with the smallest score — where *eligible* means "not yet returned and not
scoring before the already-returned frontier".

All variants follow the covering strategy of the VLDB'16 paper: a work-list of
axis-aligned boxes that might still contain a better tuple than the best
candidate seen so far (the *region of interest* under the candidate's rank
contour).  Every answer is remembered in the session before anything is
decided, so the best candidate is always the head of the stream's
:class:`~repro.core.session.CandidateHeap`: each seen row is filtered and
scored once, when the heap absorbs it.  A box is retired when

* a query on it does not overflow (everything inside has been observed),
* its minimum achievable score cannot beat the candidate (covered by the
  contour), or
* its maximum achievable score falls before the frontier (already returned).

The variants differ in how they work the list:

* **MD-BASELINE** — one broad query per iteration; after each overflow the box
  is *narrowed along the contour* of the improved candidate; only when no
  progress is made does it split.  Sequential, and slow when the user ranking
  disagrees with the hidden system ranking.
* **MD-BINARY** — repeatedly halves boxes along their widest side, querying a
  whole batch of boxes in parallel each iteration.
* **MD-RERANK** — MD-BINARY plus the on-the-fly dense-region index: boxes
  that become dense while still overflowing are crawled once and stored as
  region entries of the result cache, and a dense box inside one is read
  from the cache at zero queries by every future query.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core import contour, regions
from repro.core.dense_index import (
    MAX_BINARY_ROUNDS,
    DenseRegionIndex,
    crawl_region,
    dense_rows,
    is_dense,
)
from repro.core.functions import LinearRankingFunction
from repro.core.getnext import Variant
from repro.core.parallel import QueryEngine
from repro.core.session import ChangeWatch, Session
from repro.exceptions import RankingFunctionError
from repro.webdb.delta import ChangeLog
from repro.webdb.query import RangePredicate, Row, SearchQuery

#: The best candidate so far, as the candidate heap returns it: ``(score,
#: str(key), row)``, ordered like the emission order.  The row is the shared
#: read-only reference the source handed over, emitted as is.
Best = Optional[Tuple[float, str, Row]]
#: A box still to be searched, ``(box, split depth, min score, max score)``:
#: the bounds of a fixed box never change, so they are computed at creation.
OpenBox = Tuple[SearchQuery, int, float, float]

_TOLERANCE = 1e-9
#: Boxes narrower than this (relative to the domain) on every side are treated
#: as points; if they still overflow they must be crawled.
_POINT_WIDTH = 1e-12


class MultiDimGetNext:
    """Get-Next driver for multi-attribute (linear) reranking; MD-RERANK
    requires ``dense_index``."""

    def __init__(
        self,
        engine: QueryEngine,
        base_query: SearchQuery,
        ranking: LinearRankingFunction,
        session: Session,
        variant: Variant = Variant.RERANK,
        dense_index: Optional[DenseRegionIndex] = None,
        changes: Optional[ChangeLog] = None,
    ) -> None:
        if ranking.dimensionality < 2:
            raise RankingFunctionError(
                "MultiDimGetNext requires at least two ranking attributes; "
                "use the 1D algorithms for a single attribute"
            )
        self._engine = engine
        self._base_query = base_query
        self._ranking = ranking
        self._session = session
        self._variant = variant
        if variant is Variant.RERANK and dense_index is None:
            raise ValueError("MD-RERANK needs a dense-region index")
        #: The index this stream reads and grows; ``None`` for every variant
        #: but RERANK, which is the one place that is decided.  Every variant
        #: crawls a box once :func:`is_dense` says so; only MD-RERANK looks
        #: a dense box up in the index first and remembers what it crawled.
        self._dense_index = dense_index if variant is Variant.RERANK else None
        self._statistics = session.statistics

        schema = engine.schema
        ranking.validate(schema)
        base_query.validate(schema)
        self._space = regions.full_space(ranking.attributes, schema, base_query)
        self._frontier_score = -math.inf
        self._exhausted = False
        self._candidates = session.cached_candidates(base_query, ranking, engine.key_column)
        # Open boxes carried across Get-Next calls (the session-cache
        # acceleration the paper describes): regions whose contents are not
        # yet fully cached.  A catalog change that can match the filter query
        # voids them.
        self._open_boxes: Optional[List[OpenBox]] = None
        self._watch = ChangeWatch(changes or ChangeLog(), session, base_query)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def variant(self) -> Variant:
        """The algorithm variant in use."""
        return self._variant

    def next(self) -> Optional[Row]:
        """Return the next tuple in the user's order, or ``None``."""
        if self._exhausted:
            self._statistics.record("get_next_calls")
            return None
        if self._watch.changed():
            self._open_boxes = None
        best = self._find_next_tuple()
        if best is None:
            self._exhausted = True
            self._statistics.record("get_next_calls")
            return None
        self._frontier_score = best[0]
        row = best[2]
        self._session.mark_emitted(row, self._engine.key_column)
        self._statistics.add(get_next_calls=1, tuples_returned=1)
        return row

    # ------------------------------------------------------------------ #
    # Candidate tracking
    # ------------------------------------------------------------------ #
    def _best(self) -> Best:
        """The best candidate the session has seen: not yet returned,
        matching the filters, not before the frontier."""
        return self._candidates.best(self._frontier_score - _TOLERANCE)

    def _remember(self, rows: Sequence[Row]) -> None:
        self._session.remember(rows, self._engine.key_column)

    # ------------------------------------------------------------------ #
    # Box bookkeeping
    # ------------------------------------------------------------------ #
    def _prunable(self, box: SearchQuery, best: Best) -> bool:
        bounds = contour.score_bounds(self._ranking, box)
        if bounds.maximum < self._frontier_score - _TOLERANCE:
            return True
        return best is not None and bounds.minimum >= best[0] - _TOLERANCE

    # ------------------------------------------------------------------ #
    # The search itself
    # ------------------------------------------------------------------ #
    def _find_next_tuple(self) -> Best:
        best = self._best()
        if best is not None:
            self._statistics.record("cache_hits")
        if self._variant is Variant.BASELINE:
            return self._baseline_search(best)
        return self._partition_search(best)

    # .................................................................. #
    def _baseline_search(self, best: Best) -> Best:
        queue: Deque[Tuple[SearchQuery, int]] = deque([(self._space, 0)])
        while queue:
            box, depth = queue.popleft()
            if self._prunable(box, best):
                continue
            result = self._engine.search(regions.to_query(box, self._base_query))
            self._remember(result.observed_rows)
            previous_score = best[0] if best is not None else math.inf
            best = self._best()
            if result.proves_query:
                continue
            if best is not None and best[0] < previous_score - _TOLERANCE:
                narrowed = self._narrow_by_contour(box, best[0])
                if narrowed is None:
                    # The whole box lies outside the region of interest now.
                    continue
                if narrowed != box:
                    # Narrowing does not count toward the split depth: each
                    # narrowing is justified by a strictly better candidate, of
                    # which there are at most n.
                    queue.append((narrowed, depth))
                    continue
                # The contour could not shrink the box; fall through and split.
            if depth >= MAX_BINARY_ROUNDS or (
                regions.max_relative_width(box, self._engine.schema) <= _POINT_WIDTH
            ):
                query = regions.to_query(box, self._base_query)
                self._remember(crawl_region(self._engine, self._statistics, query))
                best = self._best()
                continue
            low, high = regions.split(box, regions.widest_attribute(box, self._engine.schema))
            queue.append((low, depth + 1))
            queue.append((high, depth + 1))
        return best

    def _narrow_by_contour(
        self, box: SearchQuery, best_score: float
    ) -> Optional[SearchQuery]:
        """Shrink ``box`` to the bounding box of its intersection with the open
        half-space ``f(x) < best_score`` (a superset of the true region of
        interest, which is all the covering argument needs).

        Returns ``None`` when the intersection is empty (the box cannot hold a
        better tuple) and the *original box* when the contour gives no
        narrowing at all — the caller then falls back to splitting."""
        new_sides: List[RangePredicate] = []
        changed = False
        for attribute in box.constrained_attributes:
            crossing = contour.contour_crossing(self._ranking, box, attribute, best_score)
            side = box.range_on(attribute)
            if crossing is None:
                new_sides.append(side)
                continue
            weight = self._ranking.weight(attribute)
            if weight > 0:
                upper = min(side.upper, crossing)
                if upper < side.lower:
                    return None
                if upper < side.upper:
                    changed = True
                new_sides.append(
                    RangePredicate(attribute, side.lower, upper, side.include_lower, True)
                )
            else:
                lower = max(side.lower, crossing)
                if lower > side.upper:
                    return None
                if lower > side.lower:
                    changed = True
                new_sides.append(
                    RangePredicate(attribute, lower, side.upper, True, side.include_upper)
                )
        if not changed:
            return box
        return SearchQuery(tuple(new_sides))

    # .................................................................. #
    def _open(self, box: SearchQuery, depth: int) -> OpenBox:
        bounds = contour.score_bounds(self._ranking, box)
        return box, depth, bounds.minimum, bounds.maximum

    def _initial_open_boxes(self) -> List[OpenBox]:
        """Open boxes to start the current Get-Next call from.

        The open-box list persists across calls: a box is removed permanently
        only once every tuple inside it is either emitted or sitting in the
        session cache, so later calls never re-query regions that have
        already been fully observed.
        """
        if self._open_boxes is None:
            self._open_boxes = [self._open(self._space, 0)]
        return self._open_boxes

    def _partition_search(self, best: Best) -> Best:
        """Shared loop of MD-BINARY and MD-RERANK: batched (parallel) queries,
        binary splitting, and — for MD-RERANK — dense-region indexing."""
        schema = self._engine.schema
        work = list(self._initial_open_boxes())
        # Boxes that cannot contain anything better than the current best are
        # deferred: they are not needed this call but may hold the answers of
        # future Get-Next calls.
        deferred: List[OpenBox] = []

        while work:
            still_open: List[OpenBox] = []
            for entry in work:
                if entry[3] < self._frontier_score - _TOLERANCE:
                    continue  # everything inside has already been emitted
                if best is not None and entry[2] >= best[0] - _TOLERANCE:
                    deferred.append(entry)
                    continue
                still_open.append(entry)
            work = still_open
            if not work:
                break

            # The whole frontier of open boxes is queried as one parallel
            # group — the covering queries the paper issues concurrently.
            batch, work = work, []
            to_query: List[Tuple[SearchQuery, int]] = []
            for box, depth, _, _ in batch:
                if is_dense(regions.max_relative_width(box, schema), depth):
                    self._resolve_dense_box(box)
                    continue
                to_query.append((box, depth))

            if to_query:
                if len(to_query) == 1 and to_query[0][1] > 0:
                    # Verification stage with a single remaining region: the
                    # paper splits the region and searches the two sub-spaces
                    # independently (and therefore in parallel) rather than
                    # issuing one broad query and waiting on it.
                    box, depth = to_query[0]
                    low, high = regions.split(box, regions.widest_attribute(box, schema))
                    to_query = [(low, depth + 1), (high, depth + 1)]
                queries = [regions.to_query(box, self._base_query) for box, _ in to_query]
                results = self._engine.search_group(queries)
                for (box, depth), result in zip(to_query, results):
                    self._remember(result.observed_rows)
                    if result.proves_query:
                        continue
                    low, high = regions.split(box, regions.widest_attribute(box, schema))
                    work.append(self._open(low, depth + 1))
                    work.append(self._open(high, depth + 1))
            best = self._best()

        self._open_boxes = deferred
        return best

    def _resolve_dense_box(self, box: SearchQuery) -> None:
        """A box is dense (or too deep).  MD-RERANK crawls it without the
        user filters through :func:`~repro.core.dense_index.dense_rows`, at
        zero queries inside a stored region entry; MD-BINARY crawls it with
        the filters and pays again next time."""
        if self._dense_index is None:
            query = regions.to_query(box, self._base_query)
            rows = crawl_region(self._engine, self._statistics, query)
        else:
            # Crawl the closed version of the box (half-open sides come
            # from binary splits): it is what persistence stores, so a
            # reloaded box covers what the crawl covered.
            closed_box = SearchQuery.build(ranges=regions.closed_bounds(box))
            covered, _ = dense_rows(
                self._engine, self._statistics, self._dense_index, closed_box, self._base_query
            )
            rows = [row for row in covered if box.matches(row)]
        self._remember(rows)
