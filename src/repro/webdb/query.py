"""Search queries against a web database's public interface.

A public web search form supports conjunctive filtering: a numeric range per
slider attribute and a value set per drop-down attribute.  :class:`SearchQuery`
models exactly that — a conjunction of :class:`RangePredicate` and
:class:`InPredicate` — and supplies the algebra the reranking algorithms need:
intersection with sub-ranges, splitting on an attribute, and membership tests
used for verification against the session cache.

Range bounds can be inclusive or exclusive on either end.  Exclusive bounds
matter: the Get-Next primitive repeatedly asks for "tuples strictly beyond the
current value", and mapping that onto the inclusive sliders of a real web form
is exactly the kind of detail a third-party service has to get right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.dataset.schema import Schema
from repro.exceptions import QueryError

#: One tuple, as every layer holds it: read-only (a write raises
#: ``TypeError``), built once where it enters the system and shared by
#: reference from then on, so no layer keeps a defensive copy.
Row = Mapping[str, object]


def freeze_row(row: Mapping[str, object]) -> Row:
    """``row`` as a :data:`Row`: itself when it already is one, otherwise a
    read-only view of a private copy, so the caller keeps no writable alias."""
    if isinstance(row, MappingProxyType):
        return row
    return MappingProxyType({**row})


def adopt_row(row: Dict[str, object]) -> Row:
    """A fresh ``row`` the caller gives up, as a :data:`Row` without a copy:
    the caller must keep no reference to the dict it hands over."""
    return MappingProxyType(row)


@dataclass(frozen=True)
class RangePredicate:
    """Numeric predicate ``lower (<|<=) attribute (<|<=) upper``.

    ``lower``/``upper`` may be ``-inf``/``+inf`` to express one-sided ranges.
    """

    attribute: str
    lower: float = -math.inf
    upper: float = math.inf
    include_lower: bool = True
    include_upper: bool = True

    def __post_init__(self) -> None:
        # NaN compares false both ways: it would "contain" every cached range.
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise QueryError(f"NaN bound on {self.attribute!r}")
        if self.lower > self.upper:
            raise QueryError(
                f"inverted range on {self.attribute!r}: [{self.lower}, {self.upper}]"
            )
        if self.lower == self.upper and not (self.include_lower and self.include_upper):
            raise QueryError(
                f"empty range on {self.attribute!r}: degenerate bounds must be inclusive"
            )

    # ------------------------------------------------------------------ #
    def matches(self, value: float) -> bool:
        """True when ``value`` satisfies the predicate.

        ``NaN`` never matches: every comparison against it is ``False``, so
        without the explicit rejection a NaN attribute value would satisfy
        *every* range predicate and poison covered-region accounting."""
        if math.isnan(value):
            return False
        if value < self.lower or value > self.upper:
            return False
        if value == self.lower and not self.include_lower:
            return False
        if value == self.upper and not self.include_upper:
            return False
        return True

    def contains(self, other: "RangePredicate") -> bool:
        """True when every value matching ``other`` also matches this
        predicate (``other``'s range lies inside this one, exclusive bounds
        respected)."""
        if other.attribute != self.attribute:
            raise QueryError(
                f"cannot compare ranges on {self.attribute!r} and {other.attribute!r}"
            )
        if other.lower < self.lower:
            return False
        if other.lower == self.lower and other.include_lower and not self.include_lower:
            return False
        if other.upper > self.upper:
            return False
        if other.upper == self.upper and other.include_upper and not self.include_upper:
            return False
        return True

    @property
    def width(self) -> float:
        """Width of the range (``inf`` for unbounded ranges)."""
        return self.upper - self.lower

    def intersect(self, other: "RangePredicate") -> Optional["RangePredicate"]:
        """Intersection with another range on the same attribute.

        Returns ``None`` when the intersection is empty.
        """
        if other.attribute != self.attribute:
            raise QueryError(
                f"cannot intersect ranges on {self.attribute!r} and {other.attribute!r}"
            )
        if self.lower > other.lower or (
            self.lower == other.lower and not self.include_lower
        ):
            lower, include_lower = self.lower, self.include_lower
        else:
            lower, include_lower = other.lower, other.include_lower
        if self.upper < other.upper or (
            self.upper == other.upper and not self.include_upper
        ):
            upper, include_upper = self.upper, self.include_upper
        else:
            upper, include_upper = other.upper, other.include_upper
        if lower > upper:
            return None
        if lower == upper and not (include_lower and include_upper):
            return None
        return RangePredicate(self.attribute, lower, upper, include_lower, include_upper)

    def split(self, midpoint: float) -> Tuple["RangePredicate", "RangePredicate"]:
        """Split into ``[lower, midpoint]`` and ``(midpoint, upper]`` halves.

        The midpoint must leave both halves representable: strictly below
        ``upper``, and — when the lower bound is exclusive — strictly above
        ``lower`` (otherwise the low half would be the empty range
        ``(lower, lower]``, which has no representation)."""
        if not (self.lower <= midpoint <= self.upper):
            raise QueryError(
                f"midpoint {midpoint} outside range [{self.lower}, {self.upper}]"
            )
        if midpoint >= self.upper or (midpoint == self.lower and not self.include_lower):
            raise QueryError(
                f"midpoint {midpoint} cannot split {self.describe()} into two "
                "non-empty halves"
            )
        low = RangePredicate(
            self.attribute, self.lower, midpoint, self.include_lower, True
        )
        high = RangePredicate(
            self.attribute, midpoint, self.upper, False, self.include_upper
        )
        return low, high

    def describe(self) -> str:
        """Human-readable rendering used in logs and the statistics panel."""
        left = "[" if self.include_lower else "("
        right = "]" if self.include_upper else ")"
        return f"{self.attribute} in {left}{self.lower:g}, {self.upper:g}{right}"


@dataclass(frozen=True)
class InPredicate:
    """Categorical predicate ``attribute IN values``."""

    attribute: str
    values: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.values:
            raise QueryError(f"empty IN predicate on {self.attribute!r}")

    def matches(self, value: object) -> bool:
        """True when ``value`` is one of the allowed values."""
        return value in self.values

    def contains(self, other: "InPredicate") -> bool:
        """True when every value matching ``other`` also matches this
        predicate (``other``'s value set is a subset of this one)."""
        if other.attribute != self.attribute:
            raise QueryError(
                f"cannot compare predicates on {self.attribute!r} and {other.attribute!r}"
            )
        return other.values <= self.values

    def intersect(self, other: "InPredicate") -> Optional["InPredicate"]:
        """Intersection with another IN predicate (``None`` if disjoint)."""
        if other.attribute != self.attribute:
            raise QueryError(
                f"cannot intersect predicates on {self.attribute!r} and {other.attribute!r}"
            )
        common = self.values & other.values
        if not common:
            return None
        return InPredicate(self.attribute, common)

    def describe(self) -> str:
        """Human-readable rendering."""
        rendered = ", ".join(sorted(self.values))
        return f"{self.attribute} in {{{rendered}}}"

    @staticmethod
    def of(attribute: str, values: Iterable[str]) -> "InPredicate":
        """Convenience constructor accepting any iterable of values."""
        return InPredicate(attribute, frozenset(values))


@dataclass(frozen=True)
class SearchQuery:
    """A conjunctive search query: at most one predicate per attribute."""

    ranges: Tuple[RangePredicate, ...] = ()
    memberships: Tuple[InPredicate, ...] = ()

    def __post_init__(self) -> None:
        names = [p.attribute for p in self.ranges] + [p.attribute for p in self.memberships]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate predicates on attributes: {names}")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def everything() -> "SearchQuery":
        """The unconstrained query (matches every tuple)."""
        return SearchQuery()

    @staticmethod
    def build(
        ranges: Optional[Mapping[str, Tuple[float, float]]] = None,
        memberships: Optional[Mapping[str, Iterable[str]]] = None,
    ) -> "SearchQuery":
        """Build a query from plain dictionaries (used by the service layer).

        ``ranges`` maps attribute name to an inclusive ``(lower, upper)`` pair;
        ``memberships`` maps attribute name to an iterable of allowed values.
        """
        range_predicates = tuple(
            RangePredicate(name, float(low), float(high))
            for name, (low, high) in (ranges or {}).items()
        )
        membership_predicates = tuple(
            InPredicate.of(name, values) for name, values in (memberships or {}).items()
        )
        return SearchQuery(range_predicates, membership_predicates)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def constrained_attributes(self) -> Tuple[str, ...]:
        """Names of attributes the query constrains."""
        return tuple(
            [p.attribute for p in self.ranges] + [p.attribute for p in self.memberships]
        )

    def range_on(self, attribute: str) -> Optional[RangePredicate]:
        """The range predicate on ``attribute`` if present."""
        for predicate in self.ranges:
            if predicate.attribute == attribute:
                return predicate
        return None

    def membership_on(self, attribute: str) -> Optional[InPredicate]:
        """The IN predicate on ``attribute`` if present."""
        for predicate in self.memberships:
            if predicate.attribute == attribute:
                return predicate
        return None

    def matches(self, row: Row) -> bool:
        """True when ``row`` satisfies every predicate.

        Range predicates only accept genuinely numeric values: ``bool`` is an
        ``int`` subclass, but ``True`` satisfying a range containing ``1.0``
        is never what a search form means, so it is excluded explicitly."""
        for predicate in self.ranges:
            value = row.get(predicate.attribute)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not predicate.matches(float(value))
            ):
                return False
        for predicate in self.memberships:
            if not predicate.matches(row.get(predicate.attribute)):
                return False
        return True

    def contains(self, other: "SearchQuery") -> bool:
        """True when every row matching ``other`` provably matches this query
        (``other``'s match set is a subset of this query's match set).

        A query contains another when each of its predicates is implied by a
        *narrower* predicate of the same kind in ``other``; attributes this
        query leaves unconstrained are free.  The check is conservative — a
        membership predicate never implies a range predicate and vice versa —
        so ``False`` only means "not provably contained"."""
        for predicate in self.ranges:
            narrower = other.range_on(predicate.attribute)
            if narrower is None or not predicate.contains(narrower):
                return False
        for predicate in self.memberships:
            narrower = other.membership_on(predicate.attribute)
            if narrower is None or not predicate.contains(narrower):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Algebra used by the reranking algorithms
    # ------------------------------------------------------------------ #
    def with_range(self, predicate: RangePredicate) -> "SearchQuery":
        """Conjoin a range predicate, intersecting with any existing range on
        the same attribute.  Raises :class:`QueryError` if the result is empty."""
        existing = self.range_on(predicate.attribute)
        if existing is not None:
            merged = existing.intersect(predicate)
            if merged is None:
                raise QueryError(
                    f"empty intersection on attribute {predicate.attribute!r}"
                )
            others = tuple(p for p in self.ranges if p.attribute != predicate.attribute)
            return replace(self, ranges=others + (merged,))
        return replace(self, ranges=self.ranges + (predicate,))

    def with_membership(self, predicate: InPredicate) -> "SearchQuery":
        """Conjoin an IN predicate, intersecting with any existing predicate."""
        existing = self.membership_on(predicate.attribute)
        if existing is not None:
            merged = existing.intersect(predicate)
            if merged is None:
                raise QueryError(
                    f"empty intersection on attribute {predicate.attribute!r}"
                )
            others = tuple(
                p for p in self.memberships if p.attribute != predicate.attribute
            )
            return replace(self, memberships=others + (merged,))
        return replace(self, memberships=self.memberships + (predicate,))

    def without_attribute(self, attribute: str) -> "SearchQuery":
        """Drop any predicate on ``attribute``."""
        return SearchQuery(
            tuple(p for p in self.ranges if p.attribute != attribute),
            tuple(p for p in self.memberships if p.attribute != attribute),
        )

    def effective_range(self, attribute: str, schema: Schema) -> RangePredicate:
        """The range the query effectively imposes on ``attribute``: either its
        explicit predicate or the attribute's full advertised domain."""
        explicit = self.range_on(attribute)
        if explicit is not None:
            return explicit
        lower, upper = schema.domain_bounds(attribute)
        return RangePredicate(attribute, lower, upper)

    def validate(self, schema: Schema) -> None:
        """Check every predicate against the schema."""
        for predicate in self.ranges:
            schema.require_numeric(predicate.attribute)
        for predicate in self.memberships:
            attribute = schema.require_categorical(predicate.attribute)
            unknown = predicate.values - set(attribute.categories)
            if unknown:
                raise QueryError(
                    f"unknown values {sorted(unknown)} for attribute "
                    f"{predicate.attribute!r}"
                )

    # ------------------------------------------------------------------ #
    # Identity / rendering
    # ------------------------------------------------------------------ #
    def canonical_key(self) -> Tuple:
        """Hashable canonical form used for query de-duplication and caching.

        Computed once per instance: the query is frozen, so the key is too."""
        key = self.__dict__.get("_canonical_key")
        if key is None:
            ranges = tuple(
                sorted(
                    (p.attribute, p.lower, p.upper, p.include_lower, p.include_upper)
                    for p in self.ranges
                )
            )
            memberships = tuple(
                sorted((p.attribute, tuple(sorted(p.values))) for p in self.memberships)
            )
            key = ranges, memberships
            # Not a field: equality, hashing and ``replace`` never see it.
            object.__setattr__(self, "_canonical_key", key)
        return key

    def describe(self) -> str:
        """Human-readable rendering used in logs and the statistics panel."""
        parts = [p.describe() for p in self.ranges] + [p.describe() for p in self.memberships]
        if not parts:
            return "TRUE"
        return " AND ".join(parts)
