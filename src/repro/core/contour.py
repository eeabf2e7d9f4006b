"""Rank-contour geometry.

The VLDB'16 algorithms are organised around the *rank contour* of the
best-known tuple: for a linear ranking function ``f``, the contour at score
``s`` is the hyperplane ``f(x) = s`` and the *region of interest* is the part
of the search space with a strictly better (smaller) score.  A candidate can
be declared the true next tuple once the region of interest is fully covered
by non-overflowing queries.

For axis-aligned boxes and linear functions the geometry reduces to corner
arithmetic: the minimum (maximum) achievable score inside a box is obtained by
taking, per attribute, the box edge the weight's sign prefers.  Those two
bounds drive all pruning decisions in the MD algorithms:

* ``min_score(box) >= best_score``  →  the box cannot contain a better tuple,
  prune it (it is *covered* by the contour);
* ``max_score(box) <= frontier``    →  every tuple in the box ranks at or
  before the already-returned frontier, prune it;
* otherwise the box straddles the region of interest and must be queried or
  split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.functions import LinearRankingFunction, weighted
from repro.webdb.query import SearchQuery


@dataclass(frozen=True)
class ScoreBounds:
    """Minimum and maximum achievable score of a linear function on a box."""

    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        if self.minimum > self.maximum + 1e-12:
            raise ValueError(f"inverted score bounds: {self.minimum} > {self.maximum}")


def score_bounds(function: LinearRankingFunction, box: SearchQuery) -> ScoreBounds:
    """Exact score bounds of ``function`` over ``box``.

    Because the function is linear and the box axis-aligned, the extrema occur
    at corners chosen per attribute by the sign of the weight.
    """
    minimum = 0.0
    maximum = 0.0
    for term in function.terms:
        side = box.range_on(term[0])
        low = weighted(term, side.lower)
        high = weighted(term, side.upper)
        minimum += min(low, high)
        maximum += max(low, high)
    return ScoreBounds(minimum=minimum, maximum=maximum)


def contour_crossing(
    function: LinearRankingFunction,
    box: SearchQuery,
    attribute: str,
    score: float,
) -> Optional[float]:
    """Where the contour ``f(x) = score`` crosses the box along ``attribute``
    when every other attribute sits at its best (score-minimizing) edge.

    Returns the raw attribute value of the crossing, clamped to the box side,
    or ``None`` when the weight of ``attribute`` is zero.  MD-BASELINE uses
    this to derive the per-attribute "narrowed" query bounds from the current
    best score — the contour-driven narrowing the paper describes.
    """
    weight = function.weight(attribute)
    if weight == 0.0:
        return None
    other_minimum = 0.0
    for term in function.terms:
        if term[0] == attribute:
            continue
        side = box.range_on(term[0])
        other_minimum += min(weighted(term, side.lower), weighted(term, side.upper))
    target = (score - other_minimum) / weight
    # Undo normalization to express the crossing in raw attribute units.
    normalizer = function.normalizer
    if normalizer is not None:
        target = normalizer.denormalize(attribute, target)
    side = box.range_on(attribute)
    return min(max(target, side.lower), side.upper)
