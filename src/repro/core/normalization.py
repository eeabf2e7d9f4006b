"""Min–max normalization of attribute domains.

The paper's sliders give weights in ``[-1, 1]``, which are only meaningful if
the attributes they weigh live on comparable scales — a dollar of price must
not drown out a whole carat.  QR2 therefore min–max normalizes attribute
values before applying the linear ranking function.

The ``(min, max)`` pair per attribute is the domain the search form
advertises: cheap and always available.  (The paper notes that the observed
extremes are discoverable too, with two 1D Get-Next calls.)
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Tuple

from repro.dataset.schema import Schema
from repro.exceptions import RankingFunctionError


@dataclass(frozen=True)
class MinMaxNormalizer:
    """Maps raw attribute values into ``[0, 1]`` given per-attribute bounds.

    The bounds are copied into a read-only mapping at construction: they are
    part of a feed's identity (``canonical_key``) and are compiled into every
    ranking function built over this normalizer, so they must never change.
    """

    bounds: Mapping[str, Tuple[float, float]]

    def __post_init__(self) -> None:
        frozen = {}
        for attribute, (lower, upper) in self.bounds.items():
            if lower > upper:
                raise RankingFunctionError(
                    f"inverted normalization bounds for {attribute!r}"
                )
            frozen[attribute] = (lower, upper)
        object.__setattr__(self, "bounds", MappingProxyType(frozen))

    def normalize(self, attribute: str, value: float) -> float:
        """Map ``value`` into ``[0, 1]`` (values outside the bounds clamp)."""
        if attribute not in self.bounds:
            raise RankingFunctionError(
                f"no normalization bounds for attribute {attribute!r}"
            )
        lower, upper = self.bounds[attribute]
        if upper == lower:
            return 0.0
        scaled = (value - lower) / (upper - lower)
        return min(max(scaled, 0.0), 1.0)

    def denormalize(self, attribute: str, value: float) -> float:
        """Inverse of :meth:`normalize` (no clamping)."""
        if attribute not in self.bounds:
            raise RankingFunctionError(
                f"no normalization bounds for attribute {attribute!r}"
            )
        lower, upper = self.bounds[attribute]
        return lower + value * (upper - lower)

    @staticmethod
    def from_schema(schema: Schema, attributes) -> "MinMaxNormalizer":
        """Bounds taken from the advertised search-form domains."""
        return MinMaxNormalizer(
            {name: schema.domain_bounds(name) for name in attributes}
        )
