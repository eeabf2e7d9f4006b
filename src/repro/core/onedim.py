"""1D query reranking: 1D-BASELINE, 1D-BINARY, and 1D-RERANK.

The user ranks on a single attribute (ascending or descending).  The Get-Next
primitive must find, among the tuples matching the filter query, the one whose
value comes right after the current frontier — issuing as few queries as
possible against the web database, which only answers top-``k`` queries ranked
by its own hidden function.

All three variants share the same outer loop:

1. if the previous value group still has unreturned tuples, emit one of them;
2. otherwise find the *next value* ``v`` beyond the frontier (this is where the
   variants differ);
3. resolve the *value group* at ``v`` — every matching tuple with that exact
   value.  When the group is larger than ``system-k`` the point query
   overflows forever (the general-positioning violation the ICDE'18 paper
   discusses) and the hidden-database crawler takes over;
4. queue the group, emit its first tuple, advance the frontier to ``v``.

Variant-specific "find the next value":

* **1D-BASELINE** — query the whole remaining interval; the smallest value in
  the (system-ranked!) answer is an upper bound for the true next value, so
  shrink the interval to it and repeat until a query stops overflowing.
* **1D-BINARY** — binary search: query the lower half of the candidate
  interval; underflow moves the lower bound up, anything else moves the upper
  bound down (to the smallest value returned).  Degrades badly when many
  tuples crowd a tiny interval.
* **1D-RERANK** — 1D-BINARY plus the on-the-fly dense-region index: covered
  intervals are answered locally with zero queries, and an interval that has
  become dense while still overflowing is crawled once, indexed, and then
  answered locally forever after.  When the user query has filters beyond
  the ranking attribute, a dense interval is first asked *with* them: if
  that one query covers its answer it settles the interval, and only an
  overflow falls back to the filter-free crawl.

Every variant keeps a **verified prefix**: the oriented value up to which
every matching tuple is already in the session cache.  An answer that
covers its interval (VALID / UNDERFLOW, a dense-index lookup, a crawl) and
starts at or below the prefix extends it; a degraded answer never
does.  A Get-Next whose best cached candidate lies inside the prefix emits
it with no query, and a prefix reaching the domain edge exhausts the stream.
The descent itself still starts at the frontier: the prefix only
short-circuits.  The prefix trusts only current rows: before each call the
stream's :class:`~repro.core.session.ChangeWatch` drops from the session
cache every tuple a logged catalog change touched, and a change that can
match the filter query drops the prefix back to the frontier.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.dense_index import DenseRegionIndex, crawl_region, dense_rows, is_dense
from repro.core.functions import SingleAttributeRanking
from repro.core.parallel import QueryEngine
from repro.core.regions import HyperRectangle, interval_relative_width
from repro.core.session import ChangeWatch, Session
from repro.webdb.delta import ChangeLog
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import RangePredicate, Row, SearchQuery

#: Oriented values: the algorithms always *minimize*; descending rankings are
#: handled by negating values on the way in and out.
_EPSILON = 1e-12


class OneDimVariant(enum.Enum):
    """Which 1D algorithm to run."""

    BASELINE = "baseline"
    BINARY = "binary"
    RERANK = "rerank"


@dataclass(frozen=True)
class _OrientedAxis:
    """Maps raw attribute values to an oriented axis on which smaller is
    always better, hiding the ascending/descending distinction."""

    attribute: str
    ascending: bool
    domain_lower: float
    domain_upper: float

    def orient(self, value: float) -> float:
        """Raw value -> oriented value."""
        return value if self.ascending else -value

    def unorient(self, value: float) -> float:
        """Oriented value -> raw value."""
        return value if self.ascending else -value

    @property
    def oriented_lower(self) -> float:
        """Smallest oriented value of the advertised domain."""
        return self.orient(self.domain_lower if self.ascending else self.domain_upper)

    @property
    def oriented_upper(self) -> float:
        """Largest oriented value of the advertised domain."""
        return self.orient(self.domain_upper if self.ascending else self.domain_lower)

    def interval_predicate(
        self,
        oriented_lower: float,
        oriented_upper: float,
        include_lower: bool,
        include_upper: bool,
    ) -> RangePredicate:
        """Oriented interval -> raw :class:`RangePredicate`."""
        raw_a = self.unorient(oriented_lower)
        raw_b = self.unorient(oriented_upper)
        if self.ascending:
            return RangePredicate(
                self.attribute, raw_a, raw_b, include_lower, include_upper
            )
        return RangePredicate(
            self.attribute, raw_b, raw_a, include_upper, include_lower
        )


@dataclass
class _Interval:
    """A half-open oriented interval ``(lower, upper]`` (lower may be closed
    when it is the domain edge)."""

    lower: float
    upper: float
    include_lower: bool
    include_upper: bool

    @property
    def width(self) -> float:
        return self.upper - self.lower


class OneDimGetNext:
    """Get-Next driver for single-attribute reranking; 1D-RERANK requires
    ``dense_index``."""

    def __init__(
        self,
        engine: QueryEngine,
        base_query: SearchQuery,
        ranking: SingleAttributeRanking,
        session: Session,
        variant: OneDimVariant = OneDimVariant.RERANK,
        dense_index: Optional[DenseRegionIndex] = None,
        changes: Optional[ChangeLog] = None,
    ) -> None:
        self._engine = engine
        self._base_query = base_query
        self._ranking = ranking
        self._session = session
        self._variant = variant
        if variant is OneDimVariant.RERANK and dense_index is None:
            raise ValueError("1D-RERANK needs a dense-region index")
        #: The index this stream reads and grows; ``None`` for every variant
        #: but RERANK, which is the one place that is decided.  Every variant
        #: crawls an interval once :func:`is_dense` says so; only 1D-RERANK
        #: looks it up in the index first and remembers what it crawled.
        self._dense_index = dense_index if variant is OneDimVariant.RERANK else None
        self._statistics = session.statistics

        schema = engine.schema
        ranking.validate(schema)
        base_query.validate(schema)
        attribute = ranking.attribute
        effective = base_query.effective_range(attribute, schema)
        self._axis = _OrientedAxis(
            attribute=attribute,
            ascending=ranking.ascending,
            domain_lower=effective.lower,
            domain_upper=effective.upper,
        )
        self._frontier: Optional[float] = None  # oriented value of the last group
        self._exhausted = False
        self._regroup = False  # the frontier's group awaits re-resolution
        # The verified prefix ``(end, inclusive)``: every matching tuple this
        # stream may still emit up to ``end`` is in the session cache.  A
        # catalog change that can match the filter query voids it.
        self._proven: Tuple[float, bool] = (self._axis.oriented_lower, False)
        self._watch = ChangeWatch(changes or ChangeLog(), session, base_query)
        #: Filters beyond the ranking attribute's own range, which can thin a
        #: dense interval below ``system_k``.
        self._filtered = bool(base_query.without_attribute(attribute).constrained_attributes)
        # A 1D ranking's score *is* the oriented value, so the heap's best
        # candidate carries the free upper bound for the next value.
        self._candidates = session.cached_candidates(base_query, ranking, engine.key_column)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def variant(self) -> OneDimVariant:
        """The algorithm variant in use."""
        return self._variant

    def next(self) -> Optional[Row]:
        """Return the next tuple in the user's order, or ``None`` when the
        query answers are exhausted."""
        if self._watch.changed():
            # The change may have deleted or moved a queued tie, or moved a
            # row onto the frontier: the frontier's group is resolved again
            # (by a later call if this one's query fails).
            self._session.clear_pending()
            self._proven = (self._frontier_lower()[0], False)
            self._regroup = self._frontier is not None
        if self._regroup:
            assert self._frontier is not None
            self._session.push_pending(self._resolve_value_group(self._frontier))
            self._regroup = False
        pending = self._session.pop_pending()
        if pending is not None:
            self._session.mark_emitted(pending, self._engine.key_column)
            self._statistics.add(get_next_calls=1, tuples_returned=1)
            return pending
        if self._exhausted:
            self._statistics.record("get_next_calls")
            return None

        next_value = self._find_next_oriented_value()
        if next_value is None:
            self._exhausted = True
            self._statistics.record("get_next_calls")
            return None

        group = self._resolve_value_group(next_value)
        self._frontier = next_value
        if not group:
            # Defensive: the value was discovered from a real tuple, so an
            # empty group means the emitted-set already contains all of them.
            self._statistics.record("get_next_calls")
            return self.next()
        self._session.push_pending(group[1:])
        first = group[0]
        self._session.mark_emitted(first, self._engine.key_column)
        self._statistics.add(get_next_calls=1, tuples_returned=1)
        return first

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _oriented_value(self, row: Row) -> float:
        return self._axis.orient(float(row[self._axis.attribute]))  # type: ignore[arg-type]

    def _frontier_lower(self) -> Tuple[float, bool]:
        """Oriented lower bound of the remaining search interval: the frontier
        (exclusive) or the domain edge (inclusive) before the first call."""
        if self._frontier is None:
            return self._axis.oriented_lower, True
        return self._frontier, False

    def _interval_query(self, interval: _Interval) -> SearchQuery:
        predicate = self._axis.interval_predicate(
            interval.lower, interval.upper, interval.include_lower, interval.include_upper
        )
        return self._base_query.with_range(predicate)

    def _eligible(self, rows: Iterable[Row]) -> List[Row]:
        """The rows strictly beyond the frontier."""
        lower, include_lower = self._frontier_lower()
        return [
            row
            for row in rows
            if self._oriented_value(row) > lower
            or (include_lower and self._oriented_value(row) == lower)
        ]

    def _eligible_values(self, rows: Iterable[Row]) -> List[float]:
        """Oriented values of the rows strictly beyond the frontier."""
        return [self._oriented_value(row) for row in self._eligible(rows)]

    def _remember(self, rows: Sequence[Row]) -> None:
        self._session.remember(rows, self._engine.key_column)

    def _within_prefix(self, value: float) -> bool:
        end, inclusive = self._proven
        # A change logged during this call leaves rows in the session cache
        # that the next call's catch-up drops: trust none of them now.
        return (value < end or (inclusive and value == end)) and self._watch.current()

    def _prove(self, interval: _Interval, result: Optional[SearchResult] = None) -> None:
        """Extend the verified prefix over ``interval`` when it starts at or
        below the prefix's end.  Every matching tuple in ``interval`` must be
        remembered already: from ``result`` when it proves its query (a
        degraded answer proves nothing), or from a dense-index
        lookup or a crawl when ``result`` is ``None``."""
        if result is not None and (not result.proves_query or result.degraded):
            return
        end, inclusive = self._proven
        if interval.lower > end or (
            interval.lower == end and not (inclusive or interval.include_lower)
        ):
            return
        if interval.upper > end or (interval.upper == end and interval.include_upper):
            self._proven = (interval.upper, interval.include_upper)

    def _cached_upper_bound(self) -> Optional[float]:
        """Best oriented value among cached, unemitted, matching tuples —
        a free upper bound for the next value."""
        best = self._candidates.best(*self._frontier_lower())
        if best is None:
            return None
        self._statistics.record("cache_hits")
        return best[0]

    # ------------------------------------------------------------------ #
    # Step 1: find the next oriented value
    # ------------------------------------------------------------------ #
    def _find_next_oriented_value(self) -> Optional[float]:
        lower, include_lower = self._frontier_lower()
        upper = self._axis.oriented_upper
        if lower > upper or (lower == upper and not include_lower):
            return None
        cached_bound = self._cached_upper_bound()
        # Inside the verified prefix the best cached candidate is the next
        # value, and a prefix reaching the domain edge with nothing cached
        # proves the stream exhausted: no query either way.
        if self._within_prefix(upper if cached_bound is None else cached_bound):
            return cached_bound
        interval = _Interval(lower, upper, include_lower, True)
        if self._variant is OneDimVariant.BASELINE:
            return self._baseline_search(interval, cached_bound)
        return self._binary_search(interval, cached_bound)

    # .................................................................. #
    def _baseline_search(
        self, interval: _Interval, cached_bound: Optional[float]
    ) -> Optional[float]:
        """Shrink the whole remaining interval using the best value seen."""
        best = cached_bound
        if best is not None:
            interval = _Interval(interval.lower, best, interval.include_lower, True)
        while True:
            result = self._search_interval(interval)
            self._remember(result.observed_rows)
            self._prove(interval, result)
            values = self._eligible_values(result.observed_rows)
            if values:
                candidate = min(values)
                if best is None or candidate < best:
                    best = candidate
            if result.proves_query:
                return best
            # Overflow: the true next value is at most `best`; shrink and retry.
            if best is None:
                # Cannot happen (an overflowing interval returned k rows all of
                # which lie inside it), but guard against a misbehaving source.
                return None
            if best <= interval.lower and interval.include_lower:
                # The candidate already sits on the closed lower edge of the
                # interval: nothing in the interval can precede it, so it is
                # the next value even though its (large) value group overflows.
                return best
            if best < interval.upper or interval.include_upper:
                make_exclusive = best == interval.upper or math.isclose(
                    best, interval.upper, rel_tol=0.0, abs_tol=_EPSILON
                )
                if make_exclusive:
                    interval = _Interval(
                        interval.lower, best, interval.include_lower, False
                    )
                else:
                    interval = _Interval(
                        interval.lower, best, interval.include_lower, True
                    )
            else:
                # Upper bound already exclusive at `best`; the next value is
                # whatever we have.
                return best

    # .................................................................. #
    def _binary_search(
        self, interval: _Interval, cached_bound: Optional[float]
    ) -> Optional[float]:
        """Binary descent; 1D-RERANK adds index lookups and dense crawling."""
        best = cached_bound
        if best is None:
            # Establish existence (and a first upper bound) with one broad query.
            result = self._probe(interval)
            if result is None:
                # The dense index covered the whole interval and found nothing.
                self._prove(interval)
                return None
            self._remember(result.observed_rows)
            self._prove(interval, result)
            values = self._eligible_values(result.observed_rows)
            if values:
                best = min(values)
            if result.proves_query or best is None:
                return best
        lower, include_lower = interval.lower, interval.include_lower
        upper = best  # a real tuple value: the answer lies in (lower, upper]
        rounds = 0

        while True:
            width = upper - lower
            relative = self._relative_width(lower, upper)
            if is_dense(relative, rounds) or width <= _EPSILON:
                return self._resolve_dense_interval(lower, include_lower, best)
            midpoint = lower + width / 2.0
            half = _Interval(lower, midpoint, include_lower, True)
            result = self._probe(half)
            if result is None:
                # Served from the dense index: nothing beyond the frontier in
                # the half, move the lower bound up.
                self._prove(half)
                lower, include_lower = midpoint, False
                rounds += 1
                continue
            self._remember(result.observed_rows)
            self._prove(half, result)
            values = self._eligible_values(result.observed_rows)
            if result.is_underflow or not values:
                lower, include_lower = midpoint, False
            elif result.proves_query:
                return min(min(values), best)
            else:
                candidate = min(values)
                best = min(best, candidate)
                upper = candidate
            rounds += 1

    def _probe(self, interval: _Interval) -> Optional[SearchResult]:
        """Query an interval, preferring the dense-region index when allowed.

        Returns ``None`` when the index covered the interval and contained no
        eligible tuple (the caller treats it like an underflow), or a synthetic
        "covered" result when the index produced the answer locally.
        """
        if self._dense_index is not None:
            predicate = self._axis.interval_predicate(
                interval.lower, interval.upper, interval.include_lower, interval.include_upper
            )
            rows = self._dense_index.lookup_interval(
                self._axis.attribute, predicate, self._base_query
            )
            if rows is not None:
                self._statistics.record("dense_index_hits")
                eligible = self._eligible(rows)
                if not eligible:
                    return None
                return SearchResult(
                    query=self._interval_query(interval),
                    rows=tuple(eligible),
                    outcome=Outcome.VALID,
                    system_k=self._engine.system_k,
                    elapsed_seconds=0.0,
                )
        return self._search_interval(interval)

    def _search_interval(self, interval: _Interval) -> SearchResult:
        return self._engine.search(self._interval_query(interval))

    def _closed(self, lower: float, upper: float) -> RangePredicate:
        """The raw closed range over the oriented ``[lower, upper]``."""
        return self._axis.interval_predicate(lower, upper, True, True)

    def _relative_width(self, lower: float, upper: float) -> float:
        return interval_relative_width(self._closed(lower, upper), self._engine.schema)

    # .................................................................. #
    def _resolve_dense_interval(
        self, lower: float, include_lower: bool, best: float
    ) -> Optional[float]:
        """The candidate interval has become dense.

        1D-RERANK answers it from the dense-region index.  On a miss it asks
        the interval with the user's filters first when there are any: they
        may thin it below ``system_k``, and then one query settles it.
        Otherwise (or when that query overflows) it crawls the interval once
        without the filters, so the region is reusable, indexes it, and
        answers locally.  The other variants fall back to baseline narrowing
        inside the small interval, which is correct but pays the price on
        every request — exactly the behaviour gap the paper demonstrates.
        """
        interval = _Interval(lower, best, include_lower, True)
        if self._dense_index is None:
            return self._baseline_search(interval, cached_bound=best)
        rows, answer = dense_rows(
            self._engine, self._statistics, self._dense_index,
            HyperRectangle((self._closed(lower, best),)), self._base_query,
            ask=self._interval_query(interval) if self._filtered else None,
        )
        if answer is not None:
            self._remember(answer.observed_rows)
            self._prove(interval, answer)
        if answer is None or not answer.proves_query:
            self._remember(rows)
            self._prove(_Interval(lower, best, True, True))
        values = self._eligible_values(rows)
        return min(min(values), best) if values else best

    # ------------------------------------------------------------------ #
    # Step 2: resolve the value group at the chosen value
    # ------------------------------------------------------------------ #
    def _resolve_value_group(self, oriented_value: float) -> List[Row]:
        key_column = self._engine.key_column
        if self._within_prefix(oriented_value):
            # The whole group is cached: the candidates tied at the value.
            best = self._candidates.best(*self._frontier_lower())
            if best is not None and best[0] == oriented_value:
                fresh = self._candidates.tied(oriented_value)
                fresh.sort(key=lambda row: str(row[key_column]))
                return fresh
        point = _Interval(oriented_value, oriented_value, True, True)
        group = self._closed(oriented_value, oriented_value)
        # The point is asked with the filters first (after the dense index,
        # if any): the group is crawled only when more than system-k tuples
        # share the value (a general-positioning violation).
        if self._dense_index is not None:
            rows, answer = dense_rows(
                self._engine, self._statistics, self._dense_index,
                HyperRectangle((group,)), self._base_query,
                ask=self._interval_query(point),
            )
        else:
            answer = self._search_interval(point)
            rows = list(answer.observed_rows)
            if not answer.proves_query:
                crawled = crawl_region(self._engine, self._statistics, SearchQuery((group,), ()))
                rows = [row for row in crawled if self._base_query.matches(row)]
        if answer is not None:
            self._remember(answer.observed_rows)
        # The group is complete: the asked answer proved it, or the index
        # or a crawl produced it.
        self._prove(point, answer if answer is not None and answer.proves_query else None)
        self._remember(rows)
        fresh = [row for row in rows if not self._session.has_emitted(row[key_column])]
        fresh.sort(key=lambda row: str(row[key_column]))
        return fresh
