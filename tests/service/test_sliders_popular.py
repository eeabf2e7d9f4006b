"""Tests for the slider-based ranking specification and popular functions."""

import pytest

from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.exceptions import RankingFunctionError
from repro.service.popular import (
    BLUENILE_POPULAR,
    ZILLOW_POPULAR,
    popular_functions,
)
from repro.service.sliders import ranking_from_sliders, sliders_from_ranking


class TestRankingFromSliders:
    def test_single_positive_slider_is_ascending_1d(self, diamond_schema_fixture):
        ranking = ranking_from_sliders({"price": 1.0}, diamond_schema_fixture)
        assert isinstance(ranking, SingleAttributeRanking)
        assert ranking.ascending

    def test_single_negative_slider_is_descending_1d(self, diamond_schema_fixture):
        ranking = ranking_from_sliders({"carat": -0.7}, diamond_schema_fixture)
        assert isinstance(ranking, SingleAttributeRanking)
        assert not ranking.ascending

    def test_zero_sliders_ignored(self, diamond_schema_fixture):
        ranking = ranking_from_sliders({"price": 1.0, "carat": 0.0}, diamond_schema_fixture)
        assert isinstance(ranking, SingleAttributeRanking)

    def test_multiple_sliders_build_normalized_linear_function(self, diamond_schema_fixture):
        ranking = ranking_from_sliders({"price": 1.0, "carat": -0.5}, diamond_schema_fixture)
        assert isinstance(ranking, LinearRankingFunction)
        assert ranking.normalizer is not None
        assert ranking.weights == {"carat": -0.5, "price": 1.0}
        # Normalization makes both terms comparable: the score of the domain
        # "best corner" is -0.5, of the worst corner +1.0.
        lower_price = diamond_schema_fixture.domain_bounds("price")[0]
        upper_carat = diamond_schema_fixture.domain_bounds("carat")[1]
        assert ranking.score({"price": lower_price, "carat": upper_carat}) == pytest.approx(-0.5)

    def test_all_zero_rejected(self, diamond_schema_fixture):
        with pytest.raises(RankingFunctionError):
            ranking_from_sliders({"price": 0.0}, diamond_schema_fixture)

    def test_out_of_range_rejected(self, diamond_schema_fixture):
        with pytest.raises(RankingFunctionError):
            ranking_from_sliders({"price": 1.5}, diamond_schema_fixture)

    def test_non_rankable_attribute_rejected(self, diamond_schema_fixture):
        with pytest.raises(Exception):
            ranking_from_sliders({"shape": 1.0}, diamond_schema_fixture)

    def test_roundtrip_with_sliders_from_ranking(self, diamond_schema_fixture):
        sliders = {"price": 1.0, "carat": -0.5}
        ranking = ranking_from_sliders(sliders, diamond_schema_fixture)
        assert sliders_from_ranking(ranking) == sliders

    def test_sliders_from_1d_ranking(self):
        assert sliders_from_ranking(SingleAttributeRanking("price", ascending=False)) == {
            "price": -1.0
        }


class TestPopularFunctions:
    def test_bluenile_suggestions_include_paper_functions(self):
        names = {function.name for function in BLUENILE_POPULAR}
        assert {"paper_3d_demo", "worst_case_lwr"} <= names

    def test_zillow_suggestions_include_paper_functions(self):
        names = {function.name for function in ZILLOW_POPULAR}
        assert {"best_case_price_sqft", "paper_fig4_demo"} <= names

    def test_lookup_by_name(self):
        by_name = {function.name: function for function in popular_functions("bluenile")}
        assert by_name["paper_3d_demo"].sliders == {"price": 1.0, "carat": -0.1, "depth": -0.5}
        assert "nope" not in by_name

    def test_unknown_source_has_no_suggestions(self):
        assert popular_functions("unknown") == []

    def test_every_suggestion_builds_a_valid_ranking(
        self, diamond_schema_fixture, housing_schema_fixture
    ):
        for function in popular_functions("bluenile"):
            ranking = ranking_from_sliders(dict(function.sliders), diamond_schema_fixture)
            ranking.validate(diamond_schema_fixture)
        for function in popular_functions("zillow"):
            ranking = ranking_from_sliders(dict(function.sliders), housing_schema_fixture)
            ranking.validate(housing_schema_fixture)

    def test_as_dict(self):
        payload = BLUENILE_POPULAR[0].as_dict()
        assert {"name", "description", "sliders"} <= set(payload)
