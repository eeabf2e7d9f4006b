"""User-specified ranking functions.

The user tells QR2 how results should be ordered.  Two forms are supported,
matching the paper's UI:

* **1D** — a single attribute with an ascending or descending direction
  (:class:`SingleAttributeRanking`), the analogue of a SQL ``ORDER BY``;
* **MD** — a linear combination ``Σ wᵢ·Aᵢ`` of two or more numeric attributes
  (:class:`LinearRankingFunction`), with weights in ``[-1, 1]`` taken from the
  UI sliders and attributes min–max normalized so the weights are comparable.

Scores are *minimized*: a positive weight means "prefer small values" (price),
a negative weight means "prefer large values" (carat, square feet).  This is
exactly how the paper writes its example functions, e.g.
``price − 0.1·carat − 0.5·depth``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Tuple

from repro.dataset.schema import Schema
from repro.exceptions import RankingFunctionError
from repro.webdb.query import Row


class UserRankingFunction(ABC):
    """A monotone scoring function over the rankable numeric attributes.

    Lower scores are better; the reranked stream is produced in ascending
    score order.
    """

    @property
    @abstractmethod
    def attributes(self) -> Tuple[str, ...]:
        """Ranking attributes, in a stable order."""

    @abstractmethod
    def score(self, row: Row) -> float:
        """Score of ``row`` (lower = better)."""

    @abstractmethod
    def weight(self, attribute: str) -> float:
        """Signed weight of ``attribute`` (sign gives the preferred direction:
        positive prefers small values, negative prefers large values)."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable rendering for the UI and logs."""

    def canonical_key(self) -> Tuple:
        """Hashable canonical identity: two functions with equal keys rank
        every row identically.  Used by the shared rerank feed to recognize
        the same popular function across sessions.  Subclasses that cannot
        guarantee this identity must leave it unimplemented — such functions
        simply never share a feed."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    @property
    def dimensionality(self) -> int:
        """Number of ranking attributes."""
        return len(self.attributes)

    @property
    def is_single_attribute(self) -> bool:
        """True for 1D ranking functions."""
        return self.dimensionality == 1

    def validate(self, schema: Schema) -> None:
        """Check that every ranking attribute is numeric and rankable."""
        for name in self.attributes:
            attribute = schema.require_numeric(name)
            if not attribute.rankable:
                raise RankingFunctionError(
                    f"attribute {name!r} is not offered for ranking"
                )


class SingleAttributeRanking(UserRankingFunction):
    """Rank by one attribute, ascending (prefer small) or descending."""

    def __init__(self, attribute: str, ascending: bool = True) -> None:
        if not attribute:
            raise RankingFunctionError("attribute name must be non-empty")
        self._attribute = attribute
        self.ascending = ascending

    @property
    def attribute(self) -> str:
        """The single ranking attribute."""
        return self._attribute

    @property
    def attributes(self) -> Tuple[str, ...]:
        return (self._attribute,)

    def weight(self, attribute: str) -> float:
        if attribute != self._attribute:
            raise RankingFunctionError(f"{attribute!r} is not a ranking attribute")
        return 1.0 if self.ascending else -1.0

    def score(self, row: Row) -> float:
        value = float(row[self._attribute])  # type: ignore[arg-type]
        return value if self.ascending else -value

    def describe(self) -> str:
        direction = "asc" if self.ascending else "desc"
        return f"order by {self._attribute} {direction}"

    def canonical_key(self) -> Tuple:
        return ("1d", self._attribute, self.ascending)


#: One compiled summand of a linear function: ``(attribute, weight, lower,
#: upper)``; ``lower`` and ``upper`` are ``None`` when values are not normalized.
Term = Tuple[str, float, Optional[float], Optional[float]]


def weighted(term: Term, value: float) -> float:
    """``weight · clamp((value − lower) / (upper − lower))`` — what ``term``
    contributes to a score at ``value``.  The rank-contour geometry and the TA
    threshold evaluate points that are not tuples (box corners, list heads)
    through this; :meth:`LinearRankingFunction.score` runs the same operations
    inline."""
    _, weight, lower, upper = term
    if lower is not None:
        if upper == lower:
            value = 0.0
        else:
            value = (value - lower) / (upper - lower)
            if value < 0.0:
                value = 0.0
            elif value > 1.0:
                value = 1.0
    return weight * value


class LinearRankingFunction(UserRankingFunction):
    """Linear combination of (optionally normalized) numeric attributes.

    Parameters
    ----------
    weights:
        Mapping from attribute name to its signed weight.  At least one weight
        must be non-zero; zero-weight attributes are dropped.
    normalizer:
        Optional :class:`~repro.core.normalization.MinMaxNormalizer`.  When
        provided, attribute values are mapped to ``[0, 1]`` before weighting —
        this is the paper's answer to "attributes with different cardinalities".
        Its bounds are folded into the function at construction, so it must
        carry bounds for every weighted attribute.
    enforce_slider_range:
        When True, weights outside ``[-1, 1]`` are rejected, matching the
        service's slider UI.  The algorithms themselves work for any weights.
    """

    def __init__(
        self,
        weights: Mapping[str, float],
        normalizer: Optional["MinMaxNormalizerProtocol"] = None,
        enforce_slider_range: bool = False,
    ) -> None:
        cleaned = {name: float(w) for name, w in weights.items() if float(w) != 0.0}
        if not cleaned:
            raise RankingFunctionError("a ranking function needs a non-zero weight")
        if enforce_slider_range:
            out_of_range = {n: w for n, w in cleaned.items() if not -1.0 <= w <= 1.0}
            if out_of_range:
                raise RankingFunctionError(
                    f"slider weights must lie in [-1, 1]: {out_of_range}"
                )
        self._weights: Dict[str, float] = dict(sorted(cleaned.items()))
        self._normalizer = normalizer
        self._terms: Tuple[Term, ...] = tuple(
            (name, weight, *self._bounds_of(name)) for name, weight in self._weights.items()
        )

    def _bounds_of(self, attribute: str) -> Tuple[Optional[float], Optional[float]]:
        if self._normalizer is None:
            return None, None
        bounds = getattr(self._normalizer, "bounds", None)
        if not isinstance(bounds, Mapping) or attribute not in bounds:
            raise RankingFunctionError(
                f"normalizer has no bounds for ranking attribute {attribute!r}"
            )
        lower, upper = bounds[attribute]
        return float(lower), float(upper)

    @property
    def weights(self) -> Dict[str, float]:
        """Copy of the weight mapping."""
        return dict(self._weights)

    @property
    def normalizer(self):
        """The attached normalizer, if any."""
        return self._normalizer

    @property
    def attributes(self) -> Tuple[str, ...]:
        return tuple(self._weights.keys())

    def weight(self, attribute: str) -> float:
        if attribute not in self._weights:
            raise RankingFunctionError(f"{attribute!r} is not a ranking attribute")
        return self._weights[attribute]

    @property
    def terms(self) -> Tuple[Term, ...]:
        """The compiled summands, in sorted-attribute order."""
        return self._terms

    def score(self, row: Row) -> float:
        # The hot loop of every Get-Next: :func:`weighted` inlined (a call per
        # attribute is what compiling the terms removes), accumulated with a
        # plain ``+=`` in sorted-attribute order so a score does not depend on
        # the interpreter's ``sum()`` (compensated since 3.12).
        total = 0.0
        for attribute, weight, lower, upper in self._terms:
            value = float(row[attribute])  # type: ignore[arg-type]
            if lower is not None:
                if upper == lower:
                    value = 0.0
                else:
                    value = (value - lower) / (upper - lower)
                    if value < 0.0:
                        value = 0.0
                    elif value > 1.0:
                        value = 1.0
            total += weight * value
        return total

    def describe(self) -> str:
        terms = []
        for attribute, weight in self._weights.items():
            sign = "-" if weight < 0 else "+"
            terms.append(f"{sign} {abs(weight):g}*{attribute}")
        rendered = " ".join(terms)
        if rendered.startswith("+ "):
            rendered = rendered[2:]
        return rendered

    def canonical_key(self) -> Tuple:
        """Weights are kept sorted, so the key is order-insensitive; the
        normalizer's bounds are part of the identity (the same weights over
        different normalization bounds score rows differently)."""
        if self._normalizer is None:
            normalizer_key: object = None
        else:
            normalizer_key = tuple(
                (name, float(lower), float(upper))
                for name, (lower, upper) in sorted(self._normalizer.bounds.items())
            )
        return ("md", tuple(self._weights.items()), normalizer_key)


def weight_value(attribute: object, value: object) -> float:
    """``value`` as the weight (or slider position) of ``attribute``: an
    ``int`` or ``float``, never a ``bool`` or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RankingFunctionError(f"weight of {attribute!r} must be a number, not {value!r}")
    return float(value)


class MinMaxNormalizerProtocol:
    """Structural type for normalizers (avoids a circular import with
    :mod:`repro.core.normalization`)."""

    #: ``attribute -> (lower, upper)``; read once, when a function is built.
    bounds: Mapping[str, Tuple[float, float]]

    def denormalize(self, attribute: str, value: float) -> float:  # pragma: no cover
        raise NotImplementedError


def from_specification(specification: Mapping[str, object]) -> UserRankingFunction:
    """Build a ranking function from a plain-dictionary specification.

    Two shapes are accepted, mirroring the two UI modes::

        {"attribute": "price", "ascending": True}                 # 1D
        {"weights": {"price": 1.0, "carat": -0.1}}                # MD sliders

    The service layer uses this to turn JSON requests into functions.
    """
    if "attribute" in specification:
        return SingleAttributeRanking(
            str(specification["attribute"]),
            ascending=bool(specification.get("ascending", True)),
        )
    if "weights" in specification:
        weights = specification["weights"]
        if not isinstance(weights, Mapping):
            raise RankingFunctionError("'weights' must be a mapping")
        return LinearRankingFunction(
            {str(k): weight_value(k, v) for k, v in weights.items()},
            enforce_slider_range=True,
        )
    raise RankingFunctionError(
        "specification must contain either 'attribute' or 'weights'"
    )
