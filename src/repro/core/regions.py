"""Region algebra for the reranking algorithms.

The MD algorithms reason about axis-aligned hyper-rectangles of the ranking
attributes' (sub-)space: they query rectangles through the public interface,
prune rectangles that cannot contain a better tuple, split overflowing
rectangles, and declare small-but-overflowing rectangles *dense*.  This module
provides the value type for those rectangles and the handful of geometric
operations the algorithms need.  1D algorithms use the degenerate single-
attribute case via :class:`~repro.webdb.query.RangePredicate` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.dataset.schema import Schema, is_numeric
from repro.exceptions import QueryError
from repro.webdb.query import RangePredicate, Row, SearchQuery


@dataclass(frozen=True)
class HyperRectangle:
    """An axis-aligned box over a fixed set of numeric attributes.

    Each side is a :class:`~repro.webdb.query.RangePredicate`, so bounds can be
    inclusive or exclusive independently — the Get-Next primitive needs
    half-open boxes ("strictly better than the current frontier").
    """

    sides: Tuple[RangePredicate, ...]
    memberships: ClassVar[Tuple[()]] = ()

    def __post_init__(self) -> None:
        names = [side.attribute for side in self.sides]
        if not names:
            raise QueryError("a hyper-rectangle needs at least one side")
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate sides in hyper-rectangle: {names}")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_bounds(bounds: Mapping[str, Tuple[float, float]]) -> "HyperRectangle":
        """Closed box from a ``{attribute: (lower, upper)}`` mapping."""
        return HyperRectangle(
            tuple(
                RangePredicate(name, float(low), float(high))
                for name, (low, high) in bounds.items()
            )
        )

    @staticmethod
    def full_space(
        attributes: Iterable[str], schema: Schema, base_query: SearchQuery
    ) -> "HyperRectangle":
        """The box spanned by the effective range of each ``attribute`` under
        ``base_query`` (explicit filter range, otherwise the advertised domain)."""
        sides = tuple(
            base_query.effective_range(attribute, schema) for attribute in attributes
        )
        return HyperRectangle(sides)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def ranges(self) -> Tuple[RangePredicate, ...]:
        """The sides as a :class:`SearchQuery` names them (for ``BoxIndex``)."""
        return self.sides

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes of the box, in side order."""
        return tuple(side.attribute for side in self.sides)

    def side(self, attribute: str) -> RangePredicate:
        """The side constraining ``attribute``."""
        for candidate in self.sides:
            if candidate.attribute == attribute:
                return candidate
        raise QueryError(f"no side for attribute {attribute!r}")

    def width(self, attribute: str) -> float:
        """Width of the box along ``attribute``."""
        return self.side(attribute).width

    def relative_widths(self, schema: Schema) -> Dict[str, float]:
        """Per-attribute width divided by the attribute's advertised domain
        width (the quantity the dense-region test compares to the threshold)."""
        widths = {}
        for side in self.sides:
            domain_lower, domain_upper = schema.domain_bounds(side.attribute)
            domain_width = max(domain_upper - domain_lower, 1e-12)
            widths[side.attribute] = side.width / domain_width
        return widths

    def max_relative_width(self, schema: Schema) -> float:
        """Largest relative width across the box's attributes."""
        return max(self.relative_widths(schema).values())

    def contains(self, row: Row) -> bool:
        """True when ``row`` falls inside the box on every side.

        Uses the same value test as :meth:`SearchQuery.matches` and both
        execution engines (``bool`` and ``NaN`` are not numeric), so a row
        the database would never return for a region's query is never
        replayed from the dense-region index either."""
        for side in self.sides:
            value = row.get(side.attribute)
            if not is_numeric(value) or not side.matches(float(value)):
                return False
        return True

    def bounds(self) -> Dict[str, Tuple[float, float]]:
        """Closed-bound view ``{attribute: (lower, upper)}`` (used by the
        persistent dense-region cache, which stores closed boxes)."""
        return {side.attribute: (side.lower, side.upper) for side in self.sides}

    def describe(self) -> str:
        """Human-readable rendering."""
        return " x ".join(side.describe() for side in self.sides)

    # ------------------------------------------------------------------ #
    # Operations used by the MD algorithms
    # ------------------------------------------------------------------ #
    def to_query(self, base_query: SearchQuery) -> SearchQuery:
        """Conjoin the box onto ``base_query``."""
        query = base_query
        for side in self.sides:
            query = query.with_range(side)
        return query

    def replace_side(self, side: RangePredicate) -> "HyperRectangle":
        """Return a copy with the side on ``side.attribute`` replaced."""
        replaced = tuple(
            side if existing.attribute == side.attribute else existing
            for existing in self.sides
        )
        if side.attribute not in self.attributes:
            raise QueryError(f"no side for attribute {side.attribute!r}")
        return HyperRectangle(replaced)

    def split(self, attribute: str, midpoint: Optional[float] = None) -> Tuple["HyperRectangle", "HyperRectangle"]:
        """Split the box along ``attribute`` at ``midpoint`` (default: centre)."""
        side = self.side(attribute)
        if midpoint is None:
            midpoint = (side.lower + side.upper) / 2.0
        low_side, high_side = side.split(midpoint)
        return self.replace_side(low_side), self.replace_side(high_side)

    def widest_attribute(self, schema: Schema) -> str:
        """Attribute with the largest relative width (the split dimension)."""
        widths = self.relative_widths(schema)
        return max(widths, key=lambda name: (widths[name], name))

    def intersect(self, other: "HyperRectangle") -> Optional["HyperRectangle"]:
        """Intersection with another box over the same attributes, or ``None``."""
        if set(self.attributes) != set(other.attributes):
            raise QueryError("can only intersect boxes over the same attributes")
        new_sides: List[RangePredicate] = []
        for side in self.sides:
            merged = side.intersect(other.side(side.attribute))
            if merged is None:
                return None
            new_sides.append(merged)
        return HyperRectangle(tuple(new_sides))

    def covers(self, other: "HyperRectangle") -> bool:
        """True when ``other`` lies entirely inside this box."""
        if set(self.attributes) != set(other.attributes):
            return False
        for side in self.sides:
            other_side = other.side(side.attribute)
            merged = side.intersect(other_side)
            if merged != other_side:
                return False
        return True


def interval_relative_width(
    interval: RangePredicate, schema: Schema
) -> float:
    """Relative width of a 1D interval against its attribute's domain."""
    domain_lower, domain_upper = schema.domain_bounds(interval.attribute)
    domain_width = max(domain_upper - domain_lower, 1e-12)
    return interval.width / domain_width
