"""Tests for user ranking functions and min–max normalization."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import contour
from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    from_specification,
    weighted,
)
from repro.core.normalization import MinMaxNormalizer
from repro.exceptions import RankingFunctionError
from repro.webdb.query import SearchQuery


class TestSingleAttributeRanking:
    def test_ascending_scores(self):
        ranking = SingleAttributeRanking("price", ascending=True)
        assert ranking.score({"price": 10}) < ranking.score({"price": 20})

    def test_descending_scores(self):
        ranking = SingleAttributeRanking("price", ascending=False)
        assert ranking.score({"price": 20}) < ranking.score({"price": 10})

    def test_attributes_and_weight(self):
        ranking = SingleAttributeRanking("price", ascending=False)
        assert ranking.attributes == ("price",)
        assert ranking.weight("price") == -1.0
        assert ranking.is_single_attribute and ranking.dimensionality == 1
        with pytest.raises(RankingFunctionError):
            ranking.weight("carat")

    def test_empty_attribute_rejected(self):
        with pytest.raises(RankingFunctionError):
            SingleAttributeRanking("")

    def test_describe(self):
        assert "desc" in SingleAttributeRanking("price", ascending=False).describe()

    def test_validate_against_schema(self, diamond_schema_fixture):
        SingleAttributeRanking("price").validate(diamond_schema_fixture)
        with pytest.raises(Exception):
            SingleAttributeRanking("shape").validate(diamond_schema_fixture)



class TestLinearRankingFunction:
    def test_score_is_weighted_sum(self):
        ranking = LinearRankingFunction({"price": 1.0, "carat": -2.0})
        assert ranking.score({"price": 10.0, "carat": 3.0}) == pytest.approx(4.0)

    def test_zero_weights_dropped(self):
        ranking = LinearRankingFunction({"price": 1.0, "carat": 0.0})
        assert ranking.attributes == ("price",)

    def test_all_zero_rejected(self):
        with pytest.raises(RankingFunctionError):
            LinearRankingFunction({"price": 0.0})

    def test_slider_range_enforcement(self):
        with pytest.raises(RankingFunctionError):
            LinearRankingFunction({"price": 2.0}, enforce_slider_range=True)
        LinearRankingFunction({"price": 2.0})  # fine without enforcement

    def test_normalized_scores(self):
        normalizer = MinMaxNormalizer({"price": (0.0, 100.0), "carat": (0.0, 5.0)})
        ranking = LinearRankingFunction({"price": 1.0, "carat": -1.0}, normalizer=normalizer)
        assert ranking.score({"price": 50.0, "carat": 5.0}) == pytest.approx(-0.5)

    def test_missing_bounds_fail_at_construction(self):
        normalizer = MinMaxNormalizer({"price": (0.0, 100.0)})
        with pytest.raises(RankingFunctionError, match="carat"):
            LinearRankingFunction({"price": 1.0, "carat": -1.0}, normalizer=normalizer)
        # A zero weight is dropped before the bounds are asked for.
        LinearRankingFunction({"price": 1.0, "carat": 0.0}, normalizer=normalizer)

    def test_describe_renders_signs(self):
        text = LinearRankingFunction({"price": 1.0, "carat": -0.5}).describe()
        assert "1*price" in text and "- 0.5*carat" in text

    def test_weight_of_unknown_attribute(self):
        with pytest.raises(RankingFunctionError):
            LinearRankingFunction({"price": 1.0}).weight("carat")


class TestFromSpecification:
    def test_single_attribute_spec(self):
        ranking = from_specification({"attribute": "price", "ascending": False})
        assert isinstance(ranking, SingleAttributeRanking)
        assert not ranking.ascending

    def test_weights_spec(self):
        ranking = from_specification({"weights": {"price": 1.0, "carat": -0.5}})
        assert isinstance(ranking, LinearRankingFunction)
        assert ranking.weights == {"carat": -0.5, "price": 1.0}

    def test_weights_spec_enforces_sliders(self):
        with pytest.raises(RankingFunctionError):
            from_specification({"weights": {"price": 3.0}})

    def test_invalid_spec(self):
        with pytest.raises(RankingFunctionError):
            from_specification({})
        with pytest.raises(RankingFunctionError):
            from_specification({"weights": "price"})


class TestMinMaxNormalizer:
    def test_normalize_and_denormalize(self):
        normalizer = MinMaxNormalizer({"price": (100.0, 200.0)})
        assert normalizer.normalize("price", 150.0) == pytest.approx(0.5)
        assert normalizer.denormalize("price", 0.5) == pytest.approx(150.0)

    def test_normalize_clamps(self):
        normalizer = MinMaxNormalizer({"price": (100.0, 200.0)})
        assert normalizer.normalize("price", 50.0) == 0.0
        assert normalizer.normalize("price", 500.0) == 1.0

    def test_degenerate_domain(self):
        normalizer = MinMaxNormalizer({"price": (5.0, 5.0)})
        assert normalizer.normalize("price", 5.0) == 0.0

    def test_unknown_attribute(self):
        normalizer = MinMaxNormalizer({"price": (0.0, 1.0)})
        with pytest.raises(RankingFunctionError):
            normalizer.normalize("carat", 1.0)
        with pytest.raises(RankingFunctionError):
            normalizer.denormalize("carat", 1.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(RankingFunctionError):
            MinMaxNormalizer({"price": (10.0, 0.0)})

    def test_bounds_are_frozen_at_construction(self):
        source = {"price": (0.0, 100.0)}
        normalizer = MinMaxNormalizer(source)
        ranking = LinearRankingFunction({"price": 1.0}, normalizer=normalizer)
        key = ranking.canonical_key()
        source["price"] = (0.0, 1.0)
        with pytest.raises(TypeError):
            normalizer.bounds["price"] = (0.0, 1.0)
        with pytest.raises(AttributeError):
            normalizer.bounds = {}
        assert normalizer.normalize("price", 50.0) == 0.5
        assert ranking.score({"price": 50.0}) == 0.5 and ranking.canonical_key() == key

    def test_from_schema(self, diamond_schema_fixture):
        normalizer = MinMaxNormalizer.from_schema(diamond_schema_fixture, ["price", "carat"])
        assert normalizer.normalize("price", diamond_schema_fixture.domain_bounds("price")[0]) == 0.0

    def test_explicit_integer_bounds(self):
        normalizer = MinMaxNormalizer({"price": (1, 3)})
        assert normalizer.normalize("price", 2) == pytest.approx(0.5)


# --------------------------------------------------------------------------- #
# The compiled kernel
# --------------------------------------------------------------------------- #
def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def kernels(draw):
    """``(weights, bounds or None, probe values per attribute)``: 1–4
    attributes, bounds that may be degenerate, and probes inside, outside and
    exactly on the bounds, plus ``-0.0``."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    magnitude = st.floats(min_value=1e-3, max_value=4.0, allow_nan=False)
    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    weights = {
        name: draw(magnitude) * draw(st.sampled_from([1.0, -1.0])) for name in names
    }
    bounds = {}
    for name in names:
        lower = draw(finite)
        upper = lower + draw(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)))
        bounds[name] = (lower, upper)
    probes = {
        name: draw(st.one_of(finite, st.sampled_from([-0.0, 0.0, *bounds[name]])))
        for name in names
    }
    return weights, draw(st.sampled_from([bounds, None])), probes


def _textbook(weights, bounds, row) -> float:
    total = 0.0
    for name in sorted(weights):
        value = float(row[name])
        if bounds is not None:
            lower, upper = bounds[name]
            value = (
                0.0 if upper == lower else min(max((value - lower) / (upper - lower), 0.0), 1.0)
            )
        total += weights[name] * value
    return total


@settings(max_examples=300, deadline=None)
@given(kernels())
def test_compiled_score_is_the_textbook_expression(kernel):
    weights, bounds, row = kernel
    normalizer = MinMaxNormalizer(bounds) if bounds is not None else None
    ranking = LinearRankingFunction(weights, normalizer=normalizer)
    expected = _textbook(weights, bounds, row)
    assert ranking.score(row) == expected
    assert _bits(ranking.score(row)) == _bits(expected)
    # The per-term form (the TA threshold, the box corners) is the same sum.
    total = 0.0
    for term in ranking.terms:
        total += weighted(term, row[term[0]])
    assert _bits(total) == _bits(expected)
    if normalizer is not None:
        for name, weight, _, _ in ranking.terms:
            assert _bits(weighted((name, weight, *bounds[name]), row[name])) == _bits(
                weight * normalizer.normalize(name, row[name])
            )


@settings(max_examples=300, deadline=None)
@given(kernels(), kernels())
def test_score_bounds_are_the_scores_of_two_corners(kernel, other):
    weights, bounds, first = kernel
    second = {name: other[2].get(name, 0.0) for name in weights}
    ranking = LinearRankingFunction(
        weights, normalizer=MinMaxNormalizer(bounds) if bounds is not None else None
    )
    sides = {name: tuple(sorted((first[name], second[name]))) for name in weights}
    best, worst = {}, {}
    for term in ranking.terms:
        low, high = sides[term[0]]
        # ``min``/``max`` keep their first argument on a tie.
        best[term[0]] = high if weighted(term, high) < weighted(term, low) else low
        worst[term[0]] = high if weighted(term, high) > weighted(term, low) else low
    extremes = contour.score_bounds(ranking, SearchQuery.build(ranges=sides))
    assert _bits(extremes.minimum) == _bits(ranking.score(best))
    assert _bits(extremes.maximum) == _bits(ranking.score(worst))
