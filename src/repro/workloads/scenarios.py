"""Demonstration-scenario workloads.

Section III of the ICDE'18 paper describes the demonstration plan as a grid of
combinations: {Blue Nile, Zillow} × {1D, MD} × {filter predicates} × {ranking
functions that are positively correlated, negatively correlated, and
independent with respect to the hidden system ranking}.  This module encodes
that grid as concrete, reproducible :class:`Scenario` objects so the
benchmarks and examples all run the same workloads.

The correlation class of a scenario is *declared* (based on how the synthetic
catalogs and the hidden rankings are constructed) and then *verified* against
the data by :func:`measure_correlation`, which computes the Spearman-style
agreement between the user ranking and the hidden system ranking over the
query's matching tuples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    UserRankingFunction,
)
from repro.core.normalization import MinMaxNormalizer
from repro.dataset.generators import pearson
from repro.dataset.schema import Schema
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.query import SearchQuery


class CorrelationClass(enum.Enum):
    """Relationship between the user ranking and the hidden system ranking."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class Scenario:
    """One demonstration workload: a source, a filter, and a ranking."""

    name: str
    source: str
    query: SearchQuery
    ranking: UserRankingFunction
    correlation: CorrelationClass
    dimensionality: int
    description: str = ""

    def describe(self) -> str:
        """One-line rendering for benchmark output."""
        return (
            f"{self.name} [{self.source}] {self.dimensionality}D "
            f"({self.correlation.value}): {self.ranking.describe()} "
            f"where {self.query.describe()}"
        )


def measure_correlation(database: HiddenWebDatabase, scenario: Scenario) -> float:
    """Pearson correlation between the user score and the hidden system score
    over the first 2000 tuples matching the scenario's query (ground truth;
    used by tests to confirm the declared correlation class)."""
    matches = database.all_matches(scenario.query)[:2000]
    if len(matches) < 3:
        return 0.0
    user_scores = [scenario.ranking.score(row) for row in matches]
    system_scores = [
        database._system_ranking.score(row)  # noqa: SLF001 - ground-truth access
        for row in matches
    ]
    return pearson(user_scores, system_scores)


# --------------------------------------------------------------------------- #
# Blue Nile scenarios
# --------------------------------------------------------------------------- #
def _bluenile_normalizer(schema: Schema, attributes: Sequence[str]) -> MinMaxNormalizer:
    return MinMaxNormalizer.from_schema(schema, attributes)


def bluenile_scenarios_1d(schema: Schema) -> List[Scenario]:
    """1D demonstration scenarios on the diamond source.

    The hidden Blue Nile ranking is price-driven (featured ≈ cheap first), so
    ranking by price ascending is positively correlated, price descending is
    negatively correlated, and depth/table are essentially independent.
    """
    round_shapes = SearchQuery.build(memberships={"shape": ["round", "princess", "cushion"]})
    mid_carat = SearchQuery.build(ranges={"carat": (0.5, 2.5)})
    return [
        Scenario(
            name="bn_1d_price_asc",
            source="bluenile",
            query=mid_carat,
            ranking=SingleAttributeRanking("price", ascending=True),
            correlation=CorrelationClass.POSITIVE,
            dimensionality=1,
            description="cheapest first, agrees with the hidden ranking",
        ),
        Scenario(
            name="bn_1d_price_desc",
            source="bluenile",
            query=mid_carat,
            ranking=SingleAttributeRanking("price", ascending=False),
            correlation=CorrelationClass.NEGATIVE,
            dimensionality=1,
            description="most expensive first, anti-correlated with the hidden ranking",
        ),
        Scenario(
            name="bn_1d_carat_desc",
            source="bluenile",
            query=round_shapes,
            ranking=SingleAttributeRanking("carat", ascending=False),
            correlation=CorrelationClass.NEGATIVE,
            dimensionality=1,
            description="largest stones first (price and carat are correlated)",
        ),
        Scenario(
            name="bn_1d_depth_asc",
            source="bluenile",
            query=round_shapes,
            ranking=SingleAttributeRanking("depth", ascending=True),
            correlation=CorrelationClass.INDEPENDENT,
            dimensionality=1,
            description="shallowest stones first, independent of the hidden ranking",
        ),
        Scenario(
            name="bn_1d_table_desc",
            source="bluenile",
            query=mid_carat,
            ranking=SingleAttributeRanking("table", ascending=False),
            correlation=CorrelationClass.INDEPENDENT,
            dimensionality=1,
            description="largest table percentage first",
        ),
    ]


def bluenile_scenarios_md(schema: Schema) -> List[Scenario]:
    """MD demonstration scenarios on the diamond source, including the exact
    2D and 3D functions of the paper's Fig. 2 and Fig. 3(b)."""
    everything = SearchQuery.everything()
    budget_filter = SearchQuery.build(ranges={"price": (500.0, 20000.0)})
    return [
        Scenario(
            name="bn_md2_price_carat",
            source="bluenile",
            query=everything,
            ranking=LinearRankingFunction(
                {"price": 1.0, "carat": -0.5},
                normalizer=_bluenile_normalizer(schema, ["price", "carat"]),
            ),
            correlation=CorrelationClass.POSITIVE,
            dimensionality=2,
            description="the paper's 2D Blue Nile function (price - 0.5 carat)",
        ),
        Scenario(
            name="bn_md3_price_carat_depth",
            source="bluenile",
            query=everything,
            ranking=LinearRankingFunction(
                {"price": 1.0, "carat": -0.1, "depth": -0.5},
                normalizer=_bluenile_normalizer(schema, ["price", "carat", "depth"]),
            ),
            correlation=CorrelationClass.POSITIVE,
            dimensionality=3,
            description="the paper's 3D function (price - 0.1 carat - 0.5 depth)",
        ),
        Scenario(
            name="bn_md2_anticorrelated",
            source="bluenile",
            query=budget_filter,
            ranking=LinearRankingFunction(
                {"price": -1.0, "carat": -0.5},
                normalizer=_bluenile_normalizer(schema, ["price", "carat"]),
            ),
            correlation=CorrelationClass.NEGATIVE,
            dimensionality=2,
            description="expensive, large stones first (fights the hidden ranking)",
        ),
        Scenario(
            name="bn_md2_independent",
            source="bluenile",
            query=budget_filter,
            ranking=LinearRankingFunction(
                {"depth": 1.0, "table": -0.7},
                normalizer=_bluenile_normalizer(schema, ["depth", "table"]),
            ),
            correlation=CorrelationClass.INDEPENDENT,
            dimensionality=2,
            description="depth/table trade-off, independent of the hidden ranking",
        ),
        Scenario(
            name="bn_md2_worst_case",
            source="bluenile",
            query=everything,
            ranking=LinearRankingFunction(
                {"price": 1.0, "length_width_ratio": 1.0},
                normalizer=_bluenile_normalizer(schema, ["price", "length_width_ratio"]),
            ),
            correlation=CorrelationClass.POSITIVE,
            dimensionality=2,
            description="the paper's worst case: ~20% of stones share LWR = 1.0",
        ),
    ]


# --------------------------------------------------------------------------- #
# Zillow scenarios
# --------------------------------------------------------------------------- #
def zillow_scenarios_1d(schema: Schema) -> List[Scenario]:
    """1D demonstration scenarios on the housing source."""
    city_filter = SearchQuery.build(memberships={"city": ["arlington", "fort_worth"]})
    family_filter = SearchQuery.build(ranges={"bedrooms": (3, 6)})
    return [
        Scenario(
            name="zl_1d_price_asc",
            source="zillow",
            query=city_filter,
            ranking=SingleAttributeRanking("price", ascending=True),
            correlation=CorrelationClass.POSITIVE,
            dimensionality=1,
            description="cheapest listings first",
        ),
        Scenario(
            name="zl_1d_price_desc",
            source="zillow",
            query=city_filter,
            ranking=SingleAttributeRanking("price", ascending=False),
            correlation=CorrelationClass.NEGATIVE,
            dimensionality=1,
            description="most expensive listings first",
        ),
        Scenario(
            name="zl_1d_sqft_desc",
            source="zillow",
            query=family_filter,
            ranking=SingleAttributeRanking("squarefeet", ascending=False),
            correlation=CorrelationClass.NEGATIVE,
            dimensionality=1,
            description="largest homes first (price follows square footage)",
        ),
        Scenario(
            name="zl_1d_year_desc",
            source="zillow",
            query=family_filter,
            ranking=SingleAttributeRanking("year_built", ascending=False),
            correlation=CorrelationClass.INDEPENDENT,
            dimensionality=1,
            description="newest construction first",
        ),
    ]


def zillow_scenarios_md(schema: Schema) -> List[Scenario]:
    """MD demonstration scenarios on the housing source, including the paper's
    best-case and Fig. 4 functions."""
    everything = SearchQuery.everything()
    family_filter = SearchQuery.build(
        ranges={"bedrooms": (3, 6)}, memberships={"home_type": ["house", "townhouse"]}
    )
    return [
        Scenario(
            name="zl_md2_best_case",
            source="zillow",
            query=everything,
            ranking=LinearRankingFunction(
                {"price": 1.0, "squarefeet": 1.0},
                normalizer=MinMaxNormalizer.from_schema(schema, ["price", "squarefeet"]),
            ),
            correlation=CorrelationClass.POSITIVE,
            dimensionality=2,
            description="the paper's best case: price + squarefeet (small cheap homes)",
        ),
        Scenario(
            name="zl_md2_fig4",
            source="zillow",
            query=everything,
            ranking=LinearRankingFunction(
                {"price": 1.0, "squarefeet": -0.3},
                normalizer=MinMaxNormalizer.from_schema(schema, ["price", "squarefeet"]),
            ),
            correlation=CorrelationClass.POSITIVE,
            dimensionality=2,
            description="price - 0.3 squarefeet, the Fig. 4 statistics function",
        ),
        Scenario(
            name="zl_md2_anticorrelated",
            source="zillow",
            query=family_filter,
            ranking=LinearRankingFunction(
                {"price": -1.0, "squarefeet": -0.5},
                normalizer=MinMaxNormalizer.from_schema(schema, ["price", "squarefeet"]),
            ),
            correlation=CorrelationClass.NEGATIVE,
            dimensionality=2,
            description="most expensive, largest homes first",
        ),
        Scenario(
            name="zl_md3_mixed",
            source="zillow",
            query=family_filter,
            ranking=LinearRankingFunction(
                {"price": 1.0, "squarefeet": -0.4, "year_built": -0.2},
                normalizer=MinMaxNormalizer.from_schema(
                    schema, ["price", "squarefeet", "year_built"]
                ),
            ),
            correlation=CorrelationClass.POSITIVE,
            dimensionality=3,
            description="cheap, large, recent homes",
        ),
    ]
