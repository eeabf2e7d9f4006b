"""Shared fixtures for the QR2 reproduction test suite.

The fixtures deliberately use *small* catalogs (a few hundred tuples) and a
small ``system-k`` so the algorithm tests — which compare against brute-force
ground truth — stay fast while still exercising overflow, dense regions, and
the general-positioning fallback.
"""

from __future__ import annotations

import threading
from functools import partial

import pytest

from repro.config import RerankConfig
from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import (
    DiamondCatalogConfig,
    diamond_schema,
    generate_diamond_catalog,
)
from repro.dataset.housing import (
    HousingCatalogConfig,
    generate_housing_catalog,
    housing_schema,
)
from repro.webdb import stack
from repro.webdb.cache import QueryResultCache
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.query import SearchQuery
from repro.webdb.resilience import CircuitBreaker, RetryPolicy
from repro.webdb.ranking import AttributeOrderRanking, FeaturedScoreRanking


SMALL_DIAMONDS = DiamondCatalogConfig(size=400, seed=99)
SMALL_HOUSING = HousingCatalogConfig(size=500, seed=77)


@pytest.fixture(scope="session")
def diamond_config() -> DiamondCatalogConfig:
    """Configuration of the small diamond catalog used across the suite."""
    return SMALL_DIAMONDS


@pytest.fixture(scope="session")
def housing_config() -> HousingCatalogConfig:
    """Configuration of the small housing catalog used across the suite."""
    return SMALL_HOUSING


@pytest.fixture(scope="session")
def diamond_catalog(diamond_config):
    """A small, deterministic diamond catalog."""
    return generate_diamond_catalog(diamond_config)


@pytest.fixture(scope="session")
def housing_catalog(housing_config):
    """A small, deterministic housing catalog."""
    return generate_housing_catalog(housing_config)


@pytest.fixture(scope="session")
def diamond_schema_fixture():
    """Schema of the diamond catalog."""
    return diamond_schema()


@pytest.fixture(scope="session")
def housing_schema_fixture():
    """Schema of the housing catalog."""
    return housing_schema()


@pytest.fixture(scope="session")
def bluenile_db(diamond_catalog, diamond_schema_fixture) -> HiddenWebDatabase:
    """Simulated Blue Nile with a price-correlated hidden ranking and k=10."""
    return HiddenWebDatabase(
        diamond_catalog,
        diamond_schema_fixture,
        FeaturedScoreRanking("price", boost_weight=2500.0),
        system_k=10,
        name="bluenile-test",
    )


@pytest.fixture(scope="session")
def bluenile_price_db(diamond_catalog, diamond_schema_fixture) -> HiddenWebDatabase:
    """Simulated Blue Nile ranked strictly by ascending price."""
    return HiddenWebDatabase(
        diamond_catalog,
        diamond_schema_fixture,
        AttributeOrderRanking("price", ascending=True),
        system_k=10,
        name="bluenile-price-test",
    )


@pytest.fixture(scope="session")
def zillow_db(housing_catalog, housing_schema_fixture) -> HiddenWebDatabase:
    """Simulated Zillow with a price-correlated hidden ranking and k=10."""
    return HiddenWebDatabase(
        housing_catalog,
        housing_schema_fixture,
        FeaturedScoreRanking("price", boost_weight=150000.0),
        system_k=10,
        name="zillow-test",
    )


@pytest.fixture()
def rerank_config() -> RerankConfig:
    """Default algorithm configuration for the tests."""
    return RerankConfig()


@pytest.fixture()
def bluenile_reranker(bluenile_db, rerank_config) -> QueryReranker:
    """A fresh reranker (fresh dense index) over the Blue Nile fixture."""
    return QueryReranker(bluenile_db, config=rerank_config)


@pytest.fixture()
def zillow_reranker(zillow_db, rerank_config) -> QueryReranker:
    """A fresh reranker (fresh dense index) over the Zillow fixture."""
    return QueryReranker(zillow_db, config=rerank_config)


def draw_request(rng, schema):
    """One drawn reranking request for the randomized differentials:
    ``(ranking, algorithm, query)`` — a 1D or weighted 2D ranking, an
    algorithm that serves it, and a filter window on one rankable attribute."""
    rankable = list(schema.rankable_names)
    if rng.random() < 0.5:
        ranking = SingleAttributeRanking(rng.choice(rankable), ascending=rng.random() < 0.5)
        algorithm = rng.choice([Algorithm.BINARY, Algorithm.RERANK])
    else:
        chosen = rng.sample(rankable, 2)
        ranking = LinearRankingFunction(
            {name: rng.choice([-1.0, -0.5, 0.5, 1.0]) for name in chosen},
            normalizer=MinMaxNormalizer.from_schema(schema, chosen),
        )
        algorithm = rng.choice([Algorithm.RERANK, Algorithm.TA])
    attribute = rng.choice(rankable)
    lower, upper = schema.domain_bounds(attribute)
    span = upper - lower
    window = (lower + rng.uniform(0.0, 0.3) * span, upper - rng.uniform(0.0, 0.3) * span)
    return ranking, algorithm, SearchQuery.build(ranges={attribute: window})


def page_through(reranker, request, pages=2, page_size=5):
    """Serve one session of a drawn request: ``(pages, external_queries)``."""
    ranking, algorithm, query = request
    stream = reranker.rerank(query, ranking, algorithm=algorithm)
    try:
        rows = [[dict(row) for row in stream.next_page(page_size)] for _ in range(pages)]
        return rows, stream.statistics.external_queries
    finally:
        stream.close()


def dense_index_over(engine) -> DenseRegionIndex:
    """The dense-region index a reranker builds over ``engine``'s result
    cache and namespace; an uncached engine's regions go to a cache of their
    own, stored and never read (every crawl pays, as it did)."""
    return DenseRegionIndex(engine.result_cache or QueryResultCache(), engine.cache_namespace)


def query_threads(before=()):
    """The live ``qr2-query`` pool threads started since ``before`` (a
    ``threading.enumerate()`` taken earlier) — other tests' remote adapters
    may still hold idle ones."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("qr2-query") and thread not in before
    ]


def assert_matches_ground_truth(stream_rows, truth_rows, ranking, key_column="id"):
    """Assert that ``stream_rows`` is a correct reranked prefix.

    Exact ties are allowed to appear in any order, so the comparison is on the
    score sequence plus set-equality of keys within each equal-score group.
    """
    got_scores = [round(ranking.score(row), 9) for row in stream_rows]
    truth_scores = [round(ranking.score(row), 9) for row in truth_rows]
    assert got_scores == truth_scores, (
        f"score sequences differ:\n got   {got_scores}\n truth {truth_scores}"
    )
    # Group keys by score and compare group memberships where fully contained.
    def group(rows):
        groups = {}
        for row in rows:
            groups.setdefault(round(ranking.score(row), 9), set()).add(row[key_column])
        return groups

    got_groups, truth_groups = group(stream_rows), group(truth_rows)
    for score, keys in got_groups.items():
        assert keys <= truth_groups.get(score, set()) or keys >= truth_groups.get(score, set()), (
            f"keys at score {score} differ: {keys} vs {truth_groups.get(score)}"
        )


def set_guard_policy(monkeypatch, max_attempts, failure_threshold=None):
    """For the rest of the test, every source stack built gets a guard that
    makes ``max_attempts`` attempts per query and, when given, a breaker
    that opens after ``failure_threshold`` consecutive failures; the rest of
    the policy keeps its defaults."""
    monkeypatch.setattr(stack, "RetryPolicy", partial(RetryPolicy, max_attempts=max_attempts))
    if failure_threshold is not None:
        monkeypatch.setattr(
            stack, "CircuitBreaker", partial(CircuitBreaker, failure_threshold=failure_threshold)
        )
