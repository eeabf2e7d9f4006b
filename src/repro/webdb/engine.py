"""Execution engines behind :class:`~repro.webdb.database.HiddenWebDatabase`.

The seed implementation answered every top-k query with a pure-Python scan
over dictionary rows — per-row ``isinstance`` checks, ``dict.get`` lookups,
and a copy of every hit.  That contract-first simplicity survives as
``tests/reference/engine.py``'s ``NaiveScanEngine``, the oracle the
differential tests and the catalog-scale benchmark compare against.

:class:`IndexedColumnarEngine` answers the same queries over the columnar
structures of :class:`~repro.webdb.indexes.ColumnarCatalog`.  A query is
compiled into a :class:`QueryPlan`:

* every predicate becomes a **block filter** — a closure applying the
  predicate to a block of :data:`BLOCK_SIZE` rank positions with a single
  list comprehension (one C-level loop per predicate per block instead of
  a Python-level function call per row);
* ``bisect`` over the per-attribute sorted value arrays and the posting-list
  lengths yield an exact **match-count estimate** per predicate;
* the planner then picks between a **rank-order scan** over all positions
  with early termination at ``k + 1`` matches (cheap for broad, overflowing
  queries) and a **candidate plan** that drives execution from the most
  selective predicate's candidate positions (cheap for narrow queries, where
  the naive scan would walk the whole catalog).

Both engines preserve the seed semantics bit for bit: hidden-rank result
order, exclusive-bound handling, the overflow/valid/underflow trichotomy, and
the exact row-dictionary layout.  ``execute_many`` lets one parallel query
group share the per-predicate planning work (bound spans, candidate lists)
across its queries.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataset.schema import is_numeric
from repro.webdb import arrays
from repro.webdb.indexes import ColumnarCatalog
from repro.webdb.query import InPredicate, RangePredicate, Row, SearchQuery

#: A block filter: rank positions in → surviving rank positions out.
BlockFilter = Callable[[Sequence[int]], Sequence[int]]

#: Rank positions the indexed engine filters per step.  Blocks keep the
#: intermediate candidate lists small under early termination while
#: amortizing the per-block Python overhead.
BLOCK_SIZE = 1024


class ExecutionEngine(ABC):
    """Strategy interface: answer conjunctive top-k queries over one catalog."""

    name: str = "abstract"

    @abstractmethod
    def execute(self, query: SearchQuery, k: int) -> Tuple[List[Row], bool]:
        """Return ``(matches, overflow)``: the first ``k`` matching rows in
        hidden-rank order (read-only rows) and whether more matched."""

    def execute_many(
        self, queries: Sequence[SearchQuery], k: int
    ) -> List[Tuple[List[Row], bool]]:
        """Batched :meth:`execute`; subclasses may amortize planning work."""
        return [self.execute(query, k) for query in queries]


@dataclass(frozen=True)
class QueryPlan:
    """How the indexed engine decided to answer one query (diagnostics).

    ``kind`` is one of:

    * ``"empty"`` — a predicate is unsatisfiable against this catalog; the
      query underflows without touching a single row;
    * ``"scan"`` — rank-order block scan with early termination;
    * ``"candidates"`` — execution driven from ``driver``'s candidate rank
      positions, with the remaining predicates applied as block filters.
    """

    kind: str
    estimated_matches: int
    filters: int
    driver: Optional[str] = None
    candidate_count: int = 0

    def describe(self) -> str:
        """One-line rendering for logs and the statistics panel."""
        if self.kind == "empty":
            return "empty (unsatisfiable predicate)"
        if self.kind == "candidates":
            return (
                f"candidates[{self.driver}] n={self.candidate_count} "
                f"filters={self.filters} est={self.estimated_matches}"
            )
        return f"scan filters={self.filters} est={self.estimated_matches}"


class _CompiledQuery:
    """A query lowered onto one catalog: block filters plus an optional
    candidate driver."""

    __slots__ = ("plan", "filters", "candidates")

    def __init__(
        self,
        plan: QueryPlan,
        filters: List[BlockFilter],
        candidates: Optional[Sequence[int]],
    ) -> None:
        self.plan = plan
        self.filters = filters
        self.candidates = candidates


class IndexedColumnarEngine(ExecutionEngine):
    """Vectorized columnar execution with index-assisted planning.

    Parameters
    ----------
    catalog:
        The columnar snapshot to execute over, :data:`BLOCK_SIZE` rank
        positions per filter application.
    """

    name = "indexed"

    def __init__(self, catalog: ColumnarCatalog) -> None:
        self._catalog = catalog

    # ------------------------------------------------------------------ #
    # ExecutionEngine
    # ------------------------------------------------------------------ #
    def execute(self, query: SearchQuery, k: int) -> Tuple[List[Row], bool]:
        return self._run(self._compile(query, k, {}), k)

    def execute_many(
        self, queries: Sequence[SearchQuery], k: int
    ) -> List[Tuple[List[Row], bool]]:
        # One shared memo: queries of a parallel group typically differ in a
        # single bound, so bound spans and candidate lists computed for one
        # member answer the others for free.
        memo: Dict[Tuple, object] = {}
        return [self._run(self._compile(query, k, memo), k) for query in queries]

    def explain(self, query: SearchQuery, k: int) -> QueryPlan:
        """The plan :meth:`execute` would pick for ``query`` (diagnostics)."""
        return self._compile(query, k, {}).plan

    # ------------------------------------------------------------------ #
    # Planner
    # ------------------------------------------------------------------ #
    def _compile(
        self, query: SearchQuery, k: int, memo: Dict[Tuple, object]
    ) -> _CompiledQuery:
        catalog = self._catalog
        size = catalog.size
        filters: List[BlockFilter] = []
        # (estimate, attribute, candidate thunk, filter index) per indexable
        # predicate; the cheapest one may become the candidate driver.
        drivers: List[Tuple[int, str, Callable[[], List[int]], int]] = []
        estimates: List[int] = []

        for predicate in chain(query.ranges, query.memberships):
            if isinstance(predicate, RangePredicate):
                spec = self._compile_range(predicate, memo)
            else:
                spec = self._compile_membership(predicate, memo)
            if spec is None:
                return self._empty_plan(len(filters))
            block_filter, estimate, candidate_thunk = spec
            if estimate is not None:
                estimates.append(estimate)
            # A driver must own a filter slot: its candidates replace exactly
            # that filter, so filter-less predicates (e.g. unbounded ranges)
            # never drive.
            if (
                candidate_thunk is not None
                and estimate is not None
                and block_filter is not None
            ):
                drivers.append(
                    (estimate, predicate.attribute, candidate_thunk, len(filters))
                )
            if block_filter is not None:
                filters.append(block_filter)

        matches_estimate = self._estimate_matches(size, estimates)
        if not drivers:
            plan = QueryPlan("scan", matches_estimate, len(filters))
            return _CompiledQuery(plan, filters, None)

        best_estimate, attribute, candidate_thunk, filter_index = min(
            drivers, key=lambda item: item[0]
        )
        # Rows the scan touches before finding k+1 matches, assuming matches
        # are spread uniformly through the ranking.
        expected_scan = min(size, size * (k + 1) // (matches_estimate + 1) + 1)
        # The candidate plan sorts the driver's positions and re-filters them
        # with the remaining predicates; the scan applies every filter to the
        # rows it touches.  Compare the two workloads directly.
        candidate_cost = best_estimate * max(1, len(filters))
        scan_cost = expected_scan * (1 + len(filters))
        if candidate_cost < scan_cost:
            candidates = candidate_thunk()
            remaining = [f for i, f in enumerate(filters) if i != filter_index]
            plan = QueryPlan(
                "candidates",
                matches_estimate,
                len(remaining),
                driver=attribute,
                candidate_count=len(candidates),
            )
            return _CompiledQuery(plan, remaining, candidates)
        plan = QueryPlan("scan", matches_estimate, len(filters))
        return _CompiledQuery(plan, filters, None)

    @staticmethod
    def _empty_plan(filter_count: int) -> _CompiledQuery:
        return _CompiledQuery(QueryPlan("empty", 0, filter_count), [], [])

    @staticmethod
    def _estimate_matches(size: int, estimates: List[int]) -> int:
        """Independence-assumption estimate of the conjunction's match count."""
        if size == 0:
            return 0
        fraction = 1.0
        for estimate in estimates:
            fraction *= estimate / size
        return int(size * fraction)

    # -- range predicates ---------------------------------------------- #
    def _compile_range(
        self, predicate: RangePredicate, memo: Dict[Tuple, object]
    ) -> Optional[Tuple[Optional[BlockFilter], Optional[int], Optional[Callable[[], List[int]]]]]:
        """Lower one range predicate; ``None`` means it matches nothing."""
        catalog = self._catalog
        attribute = predicate.attribute
        if not catalog.has_column(attribute):
            # The naive scan sees ``row.get(attribute) is None`` which fails
            # its isinstance check: no row can ever match.
            return None
        floats = catalog.float_column(attribute)
        if floats is None:
            # Mixed or non-numeric column: replicate the per-value numeric
            # check of the reference scan; no index support.
            raw = catalog.raw_column(attribute)
            assert raw is not None
            matches = predicate.matches
            block_filter: BlockFilter = lambda ranks, raw=raw, matches=matches: [
                i for i in ranks if is_numeric(raw[i]) and matches(float(raw[i]))
            ]
            return block_filter, None, None

        lower, upper = predicate.lower, predicate.upper
        include_lower, include_upper = predicate.include_lower, predicate.include_upper
        span_key = ("span", attribute, lower, upper, include_lower, include_upper)
        span = memo.get(span_key)
        if span is None:
            index = catalog.sorted_index(attribute)
            assert index is not None
            sorted_values, _ = index
            if lower == -math.inf:
                start = 0
            elif include_lower:
                start = bisect_left(sorted_values, lower)
            else:
                start = bisect_right(sorted_values, lower)
            if upper == math.inf:
                stop = len(sorted_values)
            elif include_upper:
                stop = bisect_right(sorted_values, upper)
            else:
                stop = bisect_left(sorted_values, upper)
            span = (start, max(start, stop))
            memo[span_key] = span
        start, stop = span  # type: ignore[misc]
        estimate = stop - start
        if estimate == 0:
            return None

        unbounded = (
            lower == -math.inf and upper == math.inf and include_lower and include_upper
        )
        block_filter = None if unbounded else self._float_range_filter(floats, predicate)

        def candidate_thunk(
            attribute: str = attribute, start: int = start, stop: int = stop
        ) -> Sequence[int]:
            key = ("range-candidates", attribute, start, stop)
            cached = memo.get(key)
            if cached is None:
                index = catalog.sorted_index(attribute)
                assert index is not None
                _, ranks_by_value = index
                cached = arrays.sorted_positions(ranks_by_value, start, stop)
                memo[key] = cached
            return cached  # type: ignore[return-value]

        return block_filter, estimate, candidate_thunk

    @staticmethod
    def _float_range_filter(
        column: Sequence[float], predicate: RangePredicate
    ) -> BlockFilter:
        # Dispatches on the column's buffer type: one vectorized comparison
        # per block under numpy, the reference list comprehension otherwise.
        return arrays.make_range_filter(
            column,
            predicate.lower,
            predicate.upper,
            predicate.include_lower,
            predicate.include_upper,
        )

    # -- membership predicates ----------------------------------------- #
    def _compile_membership(
        self, predicate: InPredicate, memo: Dict[Tuple, object]
    ) -> Optional[Tuple[Optional[BlockFilter], Optional[int], Optional[Callable[[], List[int]]]]]:
        """Lower one IN predicate; ``None`` means it matches nothing."""
        catalog = self._catalog
        attribute = predicate.attribute
        values = predicate.values
        if not catalog.has_column(attribute):
            # The naive scan tests ``row.get(attribute) in values``, i.e. a
            # constant ``None in values`` for every row.
            if None in values:
                return (None, None, None)  # always true: no filter needed
            return None
        raw = catalog.raw_column(attribute)
        assert raw is not None
        block_filter: BlockFilter = lambda ranks, raw=raw, values=values: [
            i for i in ranks if raw[i] in values
        ]
        postings = catalog.postings(attribute)
        if postings is None:
            return block_filter, None, None
        lists = [postings[value] for value in values if value in postings]
        estimate = sum(len(posting) for posting in lists)
        if estimate == 0:
            return None

        def candidate_thunk(
            attribute: str = attribute, lists: List[List[int]] = lists
        ) -> List[int]:
            key = ("in-candidates", attribute, tuple(sorted(map(str, values))))
            cached = memo.get(key)
            if cached is None:
                if len(lists) == 1:
                    cached = lists[0]
                else:
                    cached = sorted(chain.from_iterable(lists))
                memo[key] = cached
            return cached  # type: ignore[return-value]

        return block_filter, estimate, candidate_thunk

    # ------------------------------------------------------------------ #
    # Executor
    # ------------------------------------------------------------------ #
    def _run(self, compiled: _CompiledQuery, k: int) -> Tuple[List[Row], bool]:
        if compiled.plan.kind == "empty":
            return [], False
        if compiled.candidates is not None:
            hits = self._collect(compiled.candidates, compiled.filters, k + 1)
        else:
            hits = self._collect(self._catalog.scan_positions(), compiled.filters, k + 1)
        overflow = len(hits) > k
        return self._catalog.materialize_many(hits[:k]), overflow

    def _collect(
        self,
        positions: Sequence[int],
        filters: List[BlockFilter],
        limit: int,
    ) -> List[int]:
        """Apply ``filters`` to ``positions`` block by block, in rank order,
        stopping as soon as ``limit`` matches are known.

        ``positions`` and intermediate blocks may be any backend layout
        (``range`` slices, lists, or ndarray views) — hence the ``len``
        checks instead of truthiness, which is ambiguous for arrays.
        """
        hits: List[int] = []
        total = len(positions)
        for start in range(0, total, BLOCK_SIZE):
            block: Sequence[int] = positions[start : start + BLOCK_SIZE]
            for block_filter in filters:
                block = block_filter(block)
                if len(block) == 0:
                    break
            if len(block) > 0:
                hits.extend(block)
                if len(hits) >= limit:
                    del hits[limit:]
                    break
        return hits
