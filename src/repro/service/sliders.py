"""Slider-based ranking specification.

The QR2 ranking section shows one slider per rankable attribute; each slider
value is a preference coefficient in ``[-1, 1]``.  Dragging the price slider to
``+1`` means "strongly prefer cheap", dragging the carat slider to ``-0.5``
means "moderately prefer big stones".  The resulting user ranking function is
``Σ wᵢ·Ãᵢ`` over min–max-normalized attributes — exactly the function families
the paper's examples use (``price − 0.1·carat − 0.5·depth``).

This module converts between slider dictionaries and
:class:`~repro.core.functions.LinearRankingFunction` /
:class:`~repro.core.functions.SingleAttributeRanking` objects, which is all
the UI layer of the original system does in its ranking section.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    UserRankingFunction,
    weight_value,
)
from repro.core.normalization import MinMaxNormalizer
from repro.dataset.schema import Schema
from repro.exceptions import RankingFunctionError


def ranking_from_sliders(
    sliders: Mapping[str, float], schema: Schema
) -> UserRankingFunction:
    """Turn slider positions into a ranking function.

    Sliders at exactly ``0`` are ignored.  A single non-zero slider produces a
    1D ranking (ascending for positive values, descending for negative ones);
    two or more produce a normalized linear function.  Slider values outside
    ``[-1, 1]`` are rejected, mirroring the UI widget's range.
    """
    if not isinstance(sliders, Mapping):
        raise RankingFunctionError("'sliders' must be a mapping")
    positions = {name: weight_value(name, value) for name, value in sliders.items()}
    active = {name: value for name, value in positions.items() if value != 0.0}
    if not active:
        raise RankingFunctionError("at least one slider must be non-zero")
    for name, value in active.items():
        attribute = schema.require_numeric(name)
        if not attribute.rankable:
            raise RankingFunctionError(f"attribute {name!r} is not rankable")
        if not -1.0 <= value <= 1.0:
            raise RankingFunctionError(
                f"slider value {value} for {name!r} outside [-1, 1]"
            )
    if len(active) == 1:
        name, value = next(iter(active.items()))
        return SingleAttributeRanking(name, ascending=value > 0)
    normalizer = MinMaxNormalizer.from_schema(schema, active.keys())
    return LinearRankingFunction(active, normalizer=normalizer, enforce_slider_range=True)


def sliders_from_ranking(ranking: UserRankingFunction) -> Dict[str, float]:
    """Inverse of :func:`ranking_from_sliders` (used to pre-set the UI when a
    popular function is selected)."""
    if isinstance(ranking, SingleAttributeRanking):
        return {ranking.attribute: 1.0 if ranking.ascending else -1.0}
    if isinstance(ranking, LinearRankingFunction):
        sliders = {}
        for attribute, weight in ranking.weights.items():
            sliders[attribute] = max(-1.0, min(1.0, weight))
        return sliders
    raise RankingFunctionError(f"unsupported ranking type {type(ranking).__name__}")
