"""Box geometry for the reranking algorithms.

QR2 reaches a site only through its search form, so every box an algorithm
reasons about — an MD descent box, a 1D dense interval, a crawled or
persisted dense region — is a ranges-only
:class:`~repro.webdb.query.SearchQuery` with one
:class:`~repro.webdb.query.RangePredicate` per attribute.  Each side can be
inclusive or exclusive on either end: the Get-Next primitive needs half-open
boxes ("strictly better than the current frontier").  Membership, coverage
and rendering are the query's own (``matches``, ``contains``, ``describe``);
this module holds only the geometry a query lacks: the full space, the
conjunction with a user's filters, the binary split, relative widths, and
the closed-bound view the persistent region store keeps.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.dataset.schema import Schema
from repro.webdb.query import RangePredicate, SearchQuery


def full_space(attributes: Iterable[str], schema: Schema, base_query: SearchQuery) -> SearchQuery:
    """The box spanned by the effective range of each ``attribute`` under
    ``base_query`` (explicit filter range, otherwise the advertised domain)."""
    return SearchQuery(tuple(base_query.effective_range(name, schema) for name in attributes))


def to_query(box: SearchQuery, base_query: SearchQuery) -> SearchQuery:
    """Conjoin ``box``'s sides onto ``base_query``."""
    query = base_query
    for side in box.ranges:
        query = query.with_range(side)
    return query


def split(
    box: SearchQuery, attribute: str, midpoint: Optional[float] = None
) -> Tuple[SearchQuery, SearchQuery]:
    """``box`` split along ``attribute`` at ``midpoint`` (default: centre).

    Each half keeps the side's position, so every query issued from a box
    keeps its predicate order."""
    side = box.range_on(attribute)
    if midpoint is None:
        midpoint = (side.lower + side.upper) / 2.0
    low, high = side.split(midpoint)
    return (
        SearchQuery(tuple(low if kept is side else kept for kept in box.ranges)),
        SearchQuery(tuple(high if kept is side else kept for kept in box.ranges)),
    )


def interval_relative_width(interval: RangePredicate, schema: Schema) -> float:
    """Width of ``interval`` divided by its attribute's advertised domain
    width (the quantity the dense-region test compares to the threshold)."""
    domain_lower, domain_upper = schema.domain_bounds(interval.attribute)
    return interval.width / max(domain_upper - domain_lower, 1e-12)


def max_relative_width(box: SearchQuery, schema: Schema) -> float:
    """Largest relative width across ``box``'s sides."""
    return max(interval_relative_width(side, schema) for side in box.ranges)


def widest_attribute(box: SearchQuery, schema: Schema) -> str:
    """The attribute of ``box``'s relatively widest side (the split
    dimension); ties go to the greatest name."""
    widest = max(
        box.ranges, key=lambda side: (interval_relative_width(side, schema), side.attribute)
    )
    return widest.attribute


def closed_bounds(box: SearchQuery) -> Dict[str, Tuple[float, float]]:
    """``{attribute: (lower, upper)}`` of ``box``'s sides, each bound taken
    as inclusive: the form the persistent dense-region store keeps, and
    ``SearchQuery.build(ranges=...)`` reads back as the closed box."""
    return {side.attribute: (side.lower, side.upper) for side in box.ranges}
