"""Hidden-database crawler.

QR2 needs to retrieve *every* tuple matching a predicate in two situations:

1. **General-positioning violations** — when more than ``system-k`` tuples
   share the same value on the ranking attribute (for example ~20 % of Blue
   Nile diamonds have ``length_width_ratio = 1.0``), a point query on that
   value overflows forever and no amount of range narrowing helps.  The paper
   resolves this by falling back to the hidden-database crawling algorithm of
   Sheng et al. (VLDB 2012).
2. **Dense-region indexing** — ``(1D/MD)-RERANK`` crawl a dense region once so
   future queries can be answered from the index.

The crawler implements the core idea of that line of work: recursively
partition the query region on *other* attributes until every leaf query stops
overflowing, so the union of the leaves' results is the complete answer.
An overflowing node is halved at the midpoint of the numeric attribute that
splits the rows its answer returned most evenly (the widest relative to its
domain on a tie); categorical attributes are partitioned value by value.  A cut
at the rows' median would not bound the depth: the rows are the hidden
ranking's top ``k``, not a sample.  The number of queries issued is proportional
to the number of leaves, which is within a constant factor of the optimal crawl
for a fixed ``k`` (each valid leaf returns up to ``k`` fresh tuples).
Queries go through a :class:`~repro.core.parallel.QueryEngine`, one group
per breadth-first level, so a crawl is accounted, parallelised and
budgeted like every other query of the request that needed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CrawlError
from repro.webdb.counters import Counters
from repro.webdb.interface import SearchResult
from repro.webdb.query import InPredicate, RangePredicate, Row, SearchQuery

if TYPE_CHECKING:  # pragma: no cover - repro.core imports this module
    from repro.core.parallel import QueryEngine

#: Numeric ranges narrower than this are not split further; if such a range
#: still overflows across every other attribute, the data violates even the
#: crawler's assumptions (more than ``k`` fully identical tuples).
_MINIMUM_SPLIT_WIDTH = 1e-9


@dataclass
class CrawlStatistics(Counters):
    """Accounting for one crawl."""

    queries_issued: int = 0
    overflow_queries: int = 0
    leaves: int = 0
    tuples_retrieved: int = 0
    max_depth: int = 0
    splits_per_attribute: Dict[str, int] = field(default_factory=dict)


class HiddenDatabaseCrawler:
    """Retrieve every tuple matching a query through a :class:`QueryEngine`,
    whose accounting, parallelism and query budget every crawl query
    shares with the rest of its request."""

    def __init__(self, engine: "QueryEngine", max_depth: int = 60) -> None:
        self._engine = engine
        self._max_depth = max_depth

    # ------------------------------------------------------------------ #
    def crawl(self, query: SearchQuery) -> Tuple[List[Row], CrawlStatistics]:
        """Return every tuple matching ``query`` plus crawl statistics.

        The crawl proceeds breadth-first: every query of one level is issued
        as one engine group, so its round trips overlap exactly like the
        covering queries of the MD algorithms.  The group reads and stores
        the engine's result cache like any other: the crawl's root query is
        usually the overflowing query the algorithm just paid for, and a
        second crawl of the same region issues no query.  A degraded answer
        (a federation shard down) is a leaf when its live shards cover it,
        so the crawl returns what they hold.

        Raises :class:`CrawlError` when the region cannot be fully retrieved
        (which only happens when more than ``system-k`` tuples are identical
        on every searchable attribute).
        """
        statistics = CrawlStatistics()
        collected: Dict[object, Row] = {}
        key_column = self._engine.key_column

        frontier: List[SearchQuery] = [query]
        depth = 0
        while frontier:
            statistics.peak(max_depth=depth)
            results = self._search_level(frontier, statistics)
            next_frontier: List[SearchQuery] = []
            for level_query, result in zip(frontier, results):
                for row in result.observed_rows:
                    collected[row[key_column]] = row
                if result.proves_query:
                    statistics.record("leaves")
                    continue
                if depth >= self._max_depth:
                    raise CrawlError(
                        f"crawl exceeded maximum depth {self._max_depth} for query "
                        f"{level_query.describe()}"
                    )
                split = self._choose_split(level_query, result.observed_rows)
                if split is None:
                    raise CrawlError(
                        "region overflows but no attribute can be split further: "
                        f"{level_query.describe()} (more than system-k identical tuples?)"
                    )
                for sub_query in split:
                    self._record_split(sub_query, level_query, statistics)
                    next_frontier.append(sub_query)
            frontier = next_frontier
            depth += 1

        statistics.record("tuples_retrieved", len(collected))
        return list(collected.values()), statistics

    # ------------------------------------------------------------------ #
    def _search_level(
        self, queries: List[SearchQuery], statistics: CrawlStatistics
    ) -> List[SearchResult]:
        """Issue one breadth-first level of queries as one engine group."""
        statistics.record("queries_issued", len(queries))
        results = self._engine.search_group(queries)
        overflowed = sum(1 for result in results if result.is_overflow)
        statistics.record("overflow_queries", overflowed)
        return results

    def _record_split(
        self, sub_query: SearchQuery, parent: SearchQuery, statistics: CrawlStatistics
    ) -> None:
        parent_attributes = set(parent.constrained_attributes)
        for attribute in sub_query.constrained_attributes:
            predicate_changed = (
                attribute not in parent_attributes
                or sub_query.range_on(attribute) != parent.range_on(attribute)
                or sub_query.membership_on(attribute) != parent.membership_on(attribute)
            )
            if predicate_changed:
                statistics.tally("splits_per_attribute", {attribute: 1})

    # ------------------------------------------------------------------ #
    # Split selection
    # ------------------------------------------------------------------ #
    def _choose_split(
        self, query: SearchQuery, rows: Sequence[Row]
    ) -> Optional[List[SearchQuery]]:
        """Halve the numeric attribute whose midpoint splits ``rows`` (the
        overflowing answer already paid for) most evenly, the widest relative
        to its domain on a tie, and return the two sub-queries; with every
        numeric attribute pinned, partition a categorical one instead."""
        schema = self._engine.schema
        best_numeric: Optional[Tuple[Tuple[int, float], RangePredicate, float]] = None
        for name in schema.numeric_names:
            effective = query.effective_range(name, schema)
            width = effective.width
            if width <= _MINIMUM_SPLIT_WIDTH:
                continue
            domain_lower, domain_upper = schema.domain_bounds(name)
            domain_width = max(domain_upper - domain_lower, _MINIMUM_SPLIT_WIDTH)
            midpoint = (effective.lower + effective.upper) / 2.0
            below = sum(1 for row in rows if row[name] <= midpoint)
            key = (min(below, len(rows) - below), width / domain_width)
            if best_numeric is None or key > best_numeric[0]:
                best_numeric = (key, effective, midpoint)
        if best_numeric is not None:
            _, effective, midpoint = best_numeric
            low, high = effective.split(midpoint)
            return [query.with_range(low), query.with_range(high)]

        # Every numeric attribute is pinned; partition a categorical attribute.
        for name in schema.categorical_names:
            attribute = schema.require_categorical(name)
            existing = query.membership_on(name)
            values = sorted(existing.values) if existing is not None else list(attribute.categories)
            if len(values) <= 1:
                continue
            middle = len(values) // 2
            return [
                query.with_membership(InPredicate.of(name, values[:middle])),
                query.with_membership(InPredicate.of(name, values[middle:])),
            ]
        return None
