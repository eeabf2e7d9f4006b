"""Differential: a second request on a session that already holds another
request's rows reads the brute-force oracle's order.

Every MD algorithm takes its best candidate from a heap over everything the
session has seen — the paper's user-level cache — so the second request
starts with candidates its own queries never returned: rows of another
ranking over an overlapping filter (MD-BASELINE's crawled rows among them),
and, for MD-TA, rows its sorted-access streams never discovered.  With a
change between the two requests that reprices rows the first request saw,
the session must drop the rows it held of them, and the heap, which still
holds their old versions, must never emit one.
"""

from __future__ import annotations

import pytest

from repro.config import RerankConfig
from repro.core.functions import LinearRankingFunction
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.core.session import Session
from repro.dataset.diamonds import diamond_schema, generate_diamond_catalog
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

from tests.conftest import SMALL_DIAMONDS, assert_matches_ground_truth

DEPTH = 20
#: How many of the first request's rows the change reprices.
REPRICED = 10


def _linear(schema, weights):
    return LinearRankingFunction(
        weights, normalizer=MinMaxNormalizer.from_schema(schema, list(weights))
    )


def _reprice(held, ranking, how, schema):
    """The upserts of the change, over the held rows in the second request's
    order.  ``mirrored`` mirrors the price of the first rows in its domain,
    so they leave the front and a held row of theirs would be stale.
    ``nudged`` raises the price of rows behind the first five by one: the
    second request's first answers return their new versions while the old
    ones still sit in the heap behind current candidates."""
    order = sorted(held, key=ranking.score)
    if how == "mirrored":
        low, high = schema.domain_bounds("price")
        return [
            dict(row, price=round(low + high - float(row["price"]), 2))
            for row in order[:REPRICED]
        ]
    return [dict(row, price=round(float(row["price"]) + 1.0, 2)) for row in order[5:5 + REPRICED]]


def _read(stream, depth):
    rows = [row for row in (stream.get_next() for _ in range(depth)) if row is not None]
    stream.close()
    return rows


@pytest.mark.parametrize("change", [None, "mirrored", "nudged"])
@pytest.mark.parametrize(
    "algorithm", [Algorithm.BASELINE, Algorithm.BINARY, Algorithm.RERANK, Algorithm.TA]
)
def test_a_second_request_on_a_used_session_equals_the_oracle(algorithm, change):
    schema = diamond_schema()
    database = HiddenWebDatabase(
        generate_diamond_catalog(SMALL_DIAMONDS),
        schema,
        FeaturedScoreRanking("price", boost_weight=2500.0),
        system_k=10,
    )
    # No shared feed: each request runs its algorithm over the user's session.
    reranker = QueryReranker(database, config=RerankConfig(enable_rerank_feed=False))
    session = Session("reuse")

    first_query = SearchQuery.build(ranges={"carat": (0.3, 2.0)})
    first = _read(
        reranker.rerank(
            first_query,
            _linear(schema, {"price": 1.0, "carat": -0.5}),
            algorithm=algorithm,
            session=session,
        ),
        DEPTH,
    )
    assert len(first) == DEPTH

    second_query = SearchQuery.build(ranges={"carat": (1.0, 3.0)})
    ranking = _linear(schema, {"price": 1.0, "depth": 0.5})
    held = [row for row in session.seen_since(0) if second_query.matches(row)]
    assert held, "the first request should leave candidates for the second"
    if change is not None:
        upserts = _reprice(held, ranking, change, schema)
        assert len(upserts) == REPRICED
        reranker.apply_delta(database.apply_delta(upserts=upserts))

    session.reset_for_new_request()
    second = _read(
        reranker.rerank(second_query, ranking, algorithm=algorithm, session=session), DEPTH
    )
    truth = database.true_ranking(second_query, ranking.score, limit=DEPTH)
    assert len(second) == DEPTH
    assert_matches_ground_truth(second, truth, ranking)
    current = {row[schema.key]: row for row in database.all_matches(second_query)}
    assert all(current[row[schema.key]] == row for row in second)
