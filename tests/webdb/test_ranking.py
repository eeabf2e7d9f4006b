"""Tests for the hidden system ranking functions."""

import pytest

from repro.webdb.ranking import (
    AttributeOrderRanking,
    FeaturedScoreRanking,
    LinearSystemRanking,
    RandomTieBreakRanking,
)


ROWS = [
    {"id": "a", "price": 100.0, "carat": 1.0},
    {"id": "b", "price": 50.0, "carat": 2.0},
    {"id": "c", "price": 200.0, "carat": 0.5},
]


def ranked_ids(ranking, rows=ROWS):
    return [row["id"] for row in sorted(rows, key=ranking.sort_key("id"))]


class TestAttributeOrderRanking:
    def test_ascending(self):
        assert ranked_ids(AttributeOrderRanking("price", ascending=True)) == ["b", "a", "c"]

    def test_descending(self):
        assert ranked_ids(AttributeOrderRanking("price", ascending=False)) == ["c", "a", "b"]

    def test_describe_mentions_direction(self):
        assert "desc" in AttributeOrderRanking("price", ascending=False).describe()


class TestLinearSystemRanking:
    def test_weighted_combination(self):
        ranking = LinearSystemRanking({"price": 1.0, "carat": -100.0})
        assert ranked_ids(ranking) == ["b", "a", "c"]

    def test_requires_weights(self):
        with pytest.raises(ValueError):
            LinearSystemRanking({})

    def test_describe_lists_terms(self):
        text = LinearSystemRanking({"price": 1.0, "carat": -2.0}).describe()
        assert "price" in text and "carat" in text


class TestFeaturedScoreRanking:
    def test_scores_are_stable_across_calls(self):
        ranking = FeaturedScoreRanking("price")
        assert ranking.score(ROWS[0]) == ranking.score(ROWS[0])

    def test_boost_perturbs_pure_attribute_order(self):
        # With a huge boost the order should not be a pure price order for at
        # least some catalog; with zero boost it must be the price order.
        no_boost = FeaturedScoreRanking("price", boost_weight=0.0)
        assert ranked_ids(no_boost) == ["b", "a", "c"]
        big_boost = FeaturedScoreRanking("price", boost_weight=1e9)
        assert set(ranked_ids(big_boost)) == {"a", "b", "c"}

    def test_correlation_with_attribute(self):
        rows = [{"id": f"r{i}", "price": float(i)} for i in range(100)]
        ranking = FeaturedScoreRanking("price", boost_weight=5.0)
        ordered = [row["id"] for row in sorted(rows, key=ranking.sort_key("id"))]
        # Mostly price-ordered: the first quarter should be dominated by cheap rows.
        first_quarter = ordered[:25]
        cheap = {f"r{i}" for i in range(35)}
        assert sum(1 for key in first_quarter if key in cheap) >= 20


class TestRandomTieBreakRanking:
    def test_independent_of_attributes(self):
        ranking = RandomTieBreakRanking()
        a = ranking.score({"id": "x", "price": 1.0})
        b = ranking.score({"id": "x", "price": 99999.0})
        assert a == b  # depends only on the key

    def test_different_keys_get_different_scores(self):
        ranking = RandomTieBreakRanking()
        scores = {ranking.score({"id": f"k{i}"}) for i in range(50)}
        assert len(scores) == 50

    def test_salt_changes_order(self):
        rows = [{"id": f"k{i}"} for i in range(20)]
        first = ranked_ids(RandomTieBreakRanking(salt="one"), rows)
        second = ranked_ids(RandomTieBreakRanking(salt="two"), rows)
        assert first != second
