"""Min–max normalization of attribute domains.

The paper's sliders give weights in ``[-1, 1]``, which are only meaningful if
the attributes they weigh live on comparable scales — a dollar of price must
not drown out a whole carat.  QR2 therefore min–max normalizes attribute
values before applying the linear ranking function.

Two ways of obtaining the ``(min, max)`` pair per attribute are supported:

* take the bounds the search form advertises (cheap, always available), or
* *discover* the true observed extremes through the database's own interface
  with two 1D Get-Next calls (one ascending, one descending), exactly as the
  paper notes: "obtaining the min and max values on each attribute is simply
  doable using the 1D-RERANK algorithm".
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from repro.dataset.schema import Schema
from repro.exceptions import RankingFunctionError
from repro.webdb.interface import TopKInterface
from repro.webdb.query import SearchQuery


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



def discover_attribute_range(
    interface: TopKInterface,
    attribute: str,
    base_query: Optional[SearchQuery] = None,
) -> Tuple[float, float]:
    """Discover the true (observed) min and max of ``attribute`` using the
    1D-BINARY Get-Next primitive in both directions (a one-off discovery has
    no use for a dense-region index).

    This issues a handful of queries to the web database; services typically
    do it once per source at boot and cache the result.
    """
    # Imported lazily to avoid a circular import (onedim builds ranking
    # functions which may carry a normalizer).
    from repro.core.functions import SingleAttributeRanking
    from repro.core.onedim import OneDimGetNext, OneDimVariant
    from repro.core.parallel import QueryEngine
    from repro.core.session import Session
    from repro.config import RerankConfig

    config = RerankConfig()
    query = base_query or SearchQuery.everything()

    extremes = {}
    for ascending in (True, False):
        engine = QueryEngine(interface, config=config)
        session = Session(session_id=f"normalize-{attribute}-{ascending}")
        getnext = OneDimGetNext(
            engine=engine,
            base_query=query,
            ranking=SingleAttributeRanking(attribute, ascending=ascending),
            session=session,
            config=config,
            variant=OneDimVariant.BINARY,
        )
        first = getnext.next()
        if first is None:
            raise RankingFunctionError(
                f"no tuples match {query.describe()}; cannot discover range of "
                f"{attribute!r}"
            )
        extremes[ascending] = float(first[attribute])  # type: ignore[arg-type]
    return extremes[True], extremes[False]
