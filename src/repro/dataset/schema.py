"""Attribute and schema definitions.

A web database exposes a fixed set of *searchable attributes* through its
public interface.  Each attribute is either numeric (range sliders such as
``price`` or ``carat``) or categorical (drop-downs such as ``cut`` or
``shape``).  The schema records, for every attribute, its kind and its
advertised domain (minimum/maximum for numeric attributes, the value list for
categorical ones) so that queries and ranking functions can be validated
before they are sent to the database.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SchemaError


def is_numeric(value: object) -> bool:
    """The exact value test range predicates apply: a real number.

    Mirrors :meth:`~repro.webdb.query.SearchQuery.matches` so the site's
    execution engines and QR2's region tests stay identical: ``bool`` is
    excluded (``True`` must not satisfy a range containing ``1.0`` even though
    it is an ``int`` subclass) and ``NaN`` is excluded (it satisfies no range).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return not (isinstance(value, float) and math.isnan(value))


#: The types :meth:`Attribute.contains_all` admits with no per-value test
#: (``bool`` is not one: no range predicate matches it).
_REAL_TYPES = frozenset((int, float))


class AttributeKind(enum.Enum):
    """Kind of a searchable attribute."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Attribute:
    """A single searchable attribute of a web database.

    Parameters
    ----------
    name:
        Attribute name as used in queries and ranking functions.
    kind:
        Whether the attribute is numeric or categorical.
    lower, upper:
        Advertised domain bounds for numeric attributes.  These are the bounds
        shown on the web form's sliders; the true data may not span the full
        range.
    categories:
        Allowed values for categorical attributes.
    rankable:
        Whether the third-party service lets users rank on this attribute.
        Categorical attributes are generally not rankable.
    description:
        Human-readable description shown by the service UI.
    """

    name: str
    kind: AttributeKind
    lower: Optional[float] = None
    upper: Optional[float] = None
    categories: Tuple[str, ...] = ()
    rankable: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.kind is AttributeKind.NUMERIC:
            if self.lower is None or self.upper is None:
                raise SchemaError(
                    f"numeric attribute {self.name!r} requires lower and upper bounds"
                )
            if self.lower > self.upper:
                raise SchemaError(
                    f"numeric attribute {self.name!r} has inverted bounds "
                    f"({self.lower} > {self.upper})"
                )
        else:
            if not self.categories:
                raise SchemaError(
                    f"categorical attribute {self.name!r} requires a category list"
                )
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(
                    f"categorical attribute {self.name!r} has duplicate categories"
                )

    @property
    def is_numeric(self) -> bool:
        """True for numeric attributes."""
        return self.kind is AttributeKind.NUMERIC

    @property
    def is_categorical(self) -> bool:
        """True for categorical attributes."""
        return self.kind is AttributeKind.CATEGORICAL

    @property
    def width(self) -> float:
        """Width of the advertised numeric domain."""
        if not self.is_numeric:
            raise SchemaError(f"attribute {self.name!r} is not numeric")
        assert self.lower is not None and self.upper is not None
        return self.upper - self.lower

    def contains(self, value: object) -> bool:
        """Return True when ``value`` lies in the advertised domain."""
        return self.contains_all((value,))

    def contains_all(self, values: Sequence[object]) -> bool:
        """True when every one of ``values`` is a category, or a value
        :func:`is_numeric` admits that ``float`` puts inside the closed
        bounds; each test is one C-speed pass over the column."""
        if not self.is_numeric:
            return all(map(self.categories.__contains__, values))
        if not set(map(type, values)) <= _REAL_TYPES and not all(map(is_numeric, values)):
            return False
        floats = list(map(float, values)) or [self.lower]  # no value lies inside
        if any(map(math.isnan, floats)):
            return False
        return self.lower <= min(floats) <= max(floats) <= self.upper  # type: ignore[operator]

    @staticmethod
    def numeric(
        name: str,
        lower: float,
        upper: float,
        rankable: bool = True,
        description: str = "",
    ) -> "Attribute":
        """Convenience constructor for a numeric attribute."""
        return Attribute(
            name=name,
            kind=AttributeKind.NUMERIC,
            lower=float(lower),
            upper=float(upper),
            rankable=rankable,
            description=description,
        )

    @staticmethod
    def categorical(
        name: str,
        categories: Sequence[str],
        description: str = "",
    ) -> "Attribute":
        """Convenience constructor for a categorical attribute."""
        return Attribute(
            name=name,
            kind=AttributeKind.CATEGORICAL,
            categories=tuple(categories),
            rankable=False,
            description=description,
        )


@dataclass(frozen=True)
class Schema:
    """Ordered collection of attributes describing a web database.

    The ``key`` attribute names the unique tuple identifier (for example the
    listing id or the diamond stock number); it is always present in returned
    tuples but is never searchable or rankable.
    """

    attributes: Tuple[Attribute, ...]
    key: str = "id"

    def __post_init__(self) -> None:
        names = [attribute.name for attribute in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("schema contains duplicate attribute names")
        if self.key in names:
            raise SchemaError(
                f"key column {self.key!r} must not also be a searchable attribute"
            )

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: object) -> bool:
        return any(attribute.name == name for attribute in self.attributes)

    @property
    def names(self) -> List[str]:
        """Names of all searchable attributes, in schema order."""
        return [attribute.name for attribute in self.attributes]

    @property
    def numeric_names(self) -> List[str]:
        """Names of numeric attributes, in schema order."""
        return [a.name for a in self.attributes if a.is_numeric]

    @property
    def categorical_names(self) -> List[str]:
        """Names of categorical attributes, in schema order."""
        return [a.name for a in self.attributes if a.is_categorical]

    @property
    def rankable_names(self) -> List[str]:
        """Names of attributes users may rank on."""
        return [a.name for a in self.attributes if a.rankable and a.is_numeric]

    def attribute(self, name: str) -> Attribute:
        """Return the attribute with ``name`` or raise :class:`SchemaError`."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise SchemaError(f"unknown attribute {name!r}")

    def require_numeric(self, name: str) -> Attribute:
        """Return the numeric attribute ``name`` or raise :class:`SchemaError`."""
        attribute = self.attribute(name)
        if not attribute.is_numeric:
            raise SchemaError(f"attribute {name!r} is not numeric")
        return attribute

    def require_categorical(self, name: str) -> Attribute:
        """Return the categorical attribute ``name`` or raise :class:`SchemaError`."""
        attribute = self.attribute(name)
        if not attribute.is_categorical:
            raise SchemaError(f"attribute {name!r} is not categorical")
        return attribute

    def domain_bounds(self, name: str) -> Tuple[float, float]:
        """Advertised ``(lower, upper)`` bounds of a numeric attribute."""
        attribute = self.require_numeric(name)
        assert attribute.lower is not None and attribute.upper is not None
        return attribute.lower, attribute.upper

    def validate_row(self, row: Mapping[str, object]) -> None:
        """Validate that ``row`` carries the key and legal attribute values:
        the one-row case of :meth:`validate_columns`."""
        self.validate_columns({name: (value,) for name, value in row.items()})

    def validate_columns(self, columns: Mapping[str, Sequence[object]]) -> None:
        """Validate ``columns`` (equal-length, at least one row) column by
        column: every row carries the key and every attribute, and each
        attribute column passes :meth:`Attribute.contains_all`."""
        if self.key not in columns:
            raise SchemaError(f"row is missing key column {self.key!r}")
        for attribute in self.attributes:
            values = columns.get(attribute.name)
            if values is None:
                raise SchemaError(f"row is missing attribute {attribute.name!r}")
            if not attribute.contains_all(values):
                value = next(filterfalse(attribute.contains, values))
                raise SchemaError(
                    f"value {value!r} outside domain of attribute {attribute.name!r}"
                )

    def columns(self) -> List[str]:
        """All column names stored for a tuple: the key plus every attribute."""
        return [self.key] + self.names

