"""Correctness tests for the 1D reranking algorithms.

Every algorithm variant must return exactly the same stream of tuples as a
brute-force reranking of the query answers, for ascending and descending
directions, with and without filters, and across value ties (including value
groups larger than ``system-k``).
"""

import pytest

from repro.config import RerankConfig
from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import SingleAttributeRanking
from repro.core.getnext import Variant
from repro.core.onedim import OneDimGetNext
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm, QueryReranker
from repro.core.session import Session
from repro.webdb.cache import QueryResultCache
from repro.webdb.query import SearchQuery

from tests.conftest import assert_matches_ground_truth, dense_index_over

VARIANTS = [Variant.BASELINE, Variant.BINARY, Variant.RERANK]


def run_onedim(
    database,
    query,
    attribute,
    ascending,
    variant,
    depth,
    dense_index=None,
    session=None,
):
    session = session or Session("test")
    # Mirror QueryReranker: the engine writes its accounting into the
    # session's statistics object so the statistics panel sees one total.
    engine = QueryEngine(database, statistics=session.statistics)
    getnext = OneDimGetNext(
        engine=engine,
        base_query=query,
        ranking=SingleAttributeRanking(attribute, ascending=ascending),
        session=session,
        variant=variant,
        dense_index=dense_index if dense_index is not None else dense_index_over(engine),
    )
    rows = []
    for _ in range(depth):
        row = getnext.next()
        if row is None:
            break
        rows.append(row)
    return rows, engine, session


@pytest.mark.parametrize("variant", VARIANTS)
class TestCorrectness:
    def test_ascending_matches_ground_truth(self, bluenile_db, variant):
        query = SearchQuery.build(ranges={"carat": (0.5, 3.0)})
        ranking = SingleAttributeRanking("carat", ascending=True)
        rows, _, _ = run_onedim(bluenile_db, query, "carat", True, variant, depth=10)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=10)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_descending_matches_ground_truth(self, bluenile_db, variant):
        query = SearchQuery.build(memberships={"cut": ["ideal", "very_good"]})
        ranking = SingleAttributeRanking("price", ascending=False)
        rows, _, _ = run_onedim(bluenile_db, query, "price", False, variant, depth=10)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=10)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_anticorrelated_direction(self, bluenile_price_db, variant):
        # The hidden ranking is price ascending; asking for price descending is
        # the fully anti-correlated case.
        ranking = SingleAttributeRanking("price", ascending=False)
        rows, _, _ = run_onedim(
            bluenile_price_db, SearchQuery.everything(), "price", False, variant, depth=8
        )
        truth = bluenile_price_db.true_ranking(SearchQuery.everything(), ranking.score, limit=8)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_dense_value_cluster(self, bluenile_db, variant):
        # length_width_ratio has ~20 % of tuples at exactly 1.0 — more than
        # system-k — so the stream must crawl through the value group.
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.3)})
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
        depth = bluenile_db.system_k * 2 + 5
        rows, _, _ = run_onedim(
            bluenile_db, query, "length_width_ratio", True, variant, depth=depth
        )
        truth = bluenile_db.true_ranking(query, ranking.score, limit=depth)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_exhausts_small_result_set(self, bluenile_db, variant):
        query = SearchQuery.build(ranges={"carat": (4.0, 5.0)})
        expected = len(bluenile_db.all_matches(query))
        rows, _, _ = run_onedim(bluenile_db, query, "carat", True, variant, depth=expected + 10)
        assert len(rows) == expected

    def test_underflowing_query_returns_nothing(self, bluenile_db, variant):
        query = SearchQuery.build(ranges={"price": (300.4, 300.6)})
        rows, engine, _ = run_onedim(bluenile_db, query, "price", True, variant, depth=3)
        assert rows == []
        assert engine.queries_issued() >= 1

    def test_no_duplicate_tuples_returned(self, zillow_db, variant):
        query = SearchQuery.build(memberships={"city": ["arlington", "dallas"]})
        rows, _, _ = run_onedim(zillow_db, query, "squarefeet", False, variant, depth=15)
        keys = [row["id"] for row in rows]
        assert len(keys) == len(set(keys))

    def test_all_results_match_filter(self, zillow_db, variant):
        query = SearchQuery.build(ranges={"bedrooms": (3, 5)}, memberships={"home_type": ["house"]})
        rows, _, _ = run_onedim(zillow_db, query, "price", True, variant, depth=10)
        assert rows
        for row in rows:
            assert query.matches(row)


class TestAlgorithmBehaviour:
    def test_binary_beats_baseline_when_anticorrelated(self, bluenile_price_db):
        """The paper's motivation for 1D-BINARY: when the user ranking is
        anti-correlated with the system ranking, the baseline's broad queries
        keep returning useless tuples."""
        _, baseline_engine, _ = run_onedim(
            bluenile_price_db, SearchQuery.everything(), "price", False,
            Variant.BASELINE, depth=5,
        )
        _, binary_engine, _ = run_onedim(
            bluenile_price_db, SearchQuery.everything(), "price", False,
            Variant.BINARY, depth=5,
        )
        assert binary_engine.queries_issued() <= baseline_engine.queries_issued()

    def test_rerank_indexes_dense_value_group(self, bluenile_db):
        index = DenseRegionIndex(QueryResultCache(), "private")
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        depth = bluenile_db.system_k + 5
        _, _, session = run_onedim(
            bluenile_db, query, "length_width_ratio", True, Variant.RERANK,
            depth=depth, dense_index=index,
        )
        assert index.region_count() >= 1
        assert session.statistics.dense_regions_built >= 1

    def test_rerank_amortizes_with_shared_index(self, bluenile_db):
        """A second identical request on the same reranker (feed off, so it
        runs the algorithm) reads the dense region the first one crawled
        from the shared result cache and issues far fewer external queries."""
        reranker = QueryReranker(bluenile_db, config=RerankConfig(enable_rerank_feed=False))
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
        depth = bluenile_db.system_k + 5
        cold = reranker.rerank(query, ranking, Algorithm.RERANK)
        cold.top(depth)
        warm = reranker.rerank(query, ranking, Algorithm.RERANK)
        rows = warm.top(depth)
        assert warm.statistics.external_queries < cold.statistics.external_queries / 2
        assert warm.statistics.dense_index_hits >= 1
        truth = bluenile_db.true_ranking(query, ranking.score, limit=depth)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_session_cache_reduces_queries_for_follow_up(self, bluenile_db):
        """Re-running a request inside the same session benefits from the
        seen-tuple cache (the paper's user-level cache)."""
        session = Session("shared")
        query = SearchQuery.build(ranges={"carat": (0.5, 2.0)})
        rows_first, first_engine, _ = run_onedim(
            bluenile_db, query, "carat", True, Variant.RERANK, depth=5,
            session=session,
        )
        session.reset_for_new_request()
        rows_second, second_engine, _ = run_onedim(
            bluenile_db, query, "carat", True, Variant.RERANK, depth=5,
            session=session,
        )
        assert [r["id"] for r in rows_first] == [r["id"] for r in rows_second]
        assert second_engine.queries_issued() <= first_engine.queries_issued()
        assert session.statistics.cache_hits >= 1

    def test_statistics_are_recorded(self, bluenile_db):
        _, engine, session = run_onedim(
            bluenile_db, SearchQuery.everything(), "carat", True, Variant.RERANK, depth=3
        )
        snapshot = session.statistics.snapshot()
        assert snapshot["get_next_calls"] == 3
        assert snapshot["tuples_returned"] == 3
        assert snapshot["external_queries"] == engine.queries_issued()
        assert snapshot["external_queries"] > 0

    def test_rerank_is_the_default_variant(self, bluenile_db):
        engine = QueryEngine(bluenile_db)
        ranking = SingleAttributeRanking("price")
        # RERANK is never a hidden BINARY: it needs the index it grows.
        with pytest.raises(ValueError):
            OneDimGetNext(engine, SearchQuery.everything(), ranking, Session("x"))
        getnext = OneDimGetNext(
            engine, SearchQuery.everything(), ranking, Session("x"),
            dense_index=dense_index_over(engine),
        )
        assert getnext.variant is Variant.RERANK
        first = getnext.next()
        assert first is not None

    def test_budgeted_engine_raises_when_exhausted(self, bluenile_price_db):
        from repro.webdb.counters import QueryBudget
        from repro.exceptions import QueryBudgetExceeded

        engine = QueryEngine(bluenile_price_db, budget=QueryBudget(2))
        getnext = OneDimGetNext(
            engine=engine,
            base_query=SearchQuery.everything(),
            ranking=SingleAttributeRanking("price", ascending=False),
            session=Session("budgeted"),
            variant=Variant.BASELINE,
        )
        with pytest.raises(QueryBudgetExceeded):
            for _ in range(10):
                getnext.next()
