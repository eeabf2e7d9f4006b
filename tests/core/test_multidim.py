"""Correctness tests for the MD reranking algorithms (BASELINE, BINARY,
RERANK) against brute-force ground truth."""

import pytest

from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.getnext import Variant
from repro.core.multidim import MultiDimGetNext
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.session import Session
from repro.dataset.diamonds import diamond_schema, generate_diamond_catalog
from repro.exceptions import RankingFunctionError
from repro.webdb.cache import QueryResultCache, default_namespace
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

from tests.conftest import SMALL_DIAMONDS, assert_matches_ground_truth, dense_index_over

VARIANTS = [Variant.BASELINE, Variant.BINARY, Variant.RERANK]


def make_ranking(schema, weights):
    return LinearRankingFunction(
        weights, normalizer=MinMaxNormalizer.from_schema(schema, list(weights))
    )


def run_md(
    database, query, ranking, variant, depth, dense_index=None, session=None, result_cache=None
):
    session = session or Session("md-test")
    engine = QueryEngine(database, statistics=session.statistics, result_cache=result_cache)
    getnext = MultiDimGetNext(
        engine=engine,
        base_query=query,
        ranking=ranking,
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
    def test_2d_positive_weights(self, zillow_db, variant):
        ranking = make_ranking(zillow_db.schema, {"price": 1.0, "squarefeet": 1.0})
        query = SearchQuery.everything()
        rows, _, _ = run_md(zillow_db, query, ranking, variant, depth=6)
        truth = zillow_db.true_ranking(query, ranking.score, limit=6)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_2d_mixed_weights_with_filter(self, bluenile_db, variant):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        query = SearchQuery.build(memberships={"shape": ["round", "oval", "princess", "cushion"]})
        rows, _, _ = run_md(bluenile_db, query, ranking, variant, depth=6)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=6)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_3d_paper_function(self, bluenile_db, variant):
        ranking = make_ranking(
            bluenile_db.schema, {"price": 1.0, "carat": -0.1, "depth": -0.5}
        )
        query = SearchQuery.everything()
        rows, _, _ = run_md(bluenile_db, query, ranking, variant, depth=5)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_anticorrelated_weights(self, bluenile_price_db, variant):
        ranking = make_ranking(
            bluenile_price_db.schema, {"price": -1.0, "carat": -0.5}
        )
        query = SearchQuery.build(ranges={"price": (500.0, 20000.0)})
        rows, _, _ = run_md(bluenile_price_db, query, ranking, variant, depth=5)
        truth = bluenile_price_db.true_ranking(query, ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_filter_is_respected(self, zillow_db, variant):
        ranking = make_ranking(zillow_db.schema, {"price": 1.0, "year_built": -0.3})
        query = SearchQuery.build(
            ranges={"bedrooms": (3, 6)}, memberships={"home_type": ["house"]}
        )
        rows, _, _ = run_md(zillow_db, query, ranking, variant, depth=5)
        assert rows
        for row in rows:
            assert query.matches(row)
        truth = zillow_db.true_ranking(query, ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_exhausts_small_result_set(self, bluenile_db, variant):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        query = SearchQuery.build(ranges={"carat": (4.0, 5.0)})
        expected = len(bluenile_db.all_matches(query))
        rows, _, _ = run_md(bluenile_db, query, ranking, variant, depth=expected + 5)
        assert len(rows) == expected

    def test_underflowing_query(self, bluenile_db, variant):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        query = SearchQuery.build(ranges={"price": (300.4, 300.6)})
        rows, _, _ = run_md(bluenile_db, query, ranking, variant, depth=3)
        assert rows == []

    def test_no_duplicates(self, zillow_db, variant):
        ranking = make_ranking(zillow_db.schema, {"price": 1.0, "lot_size": -0.4})
        rows, _, _ = run_md(zillow_db, SearchQuery.everything(), ranking, variant, depth=10)
        keys = [row["id"] for row in rows]
        assert len(keys) == len(set(keys))

    def test_dense_lwr_cluster_function(self, bluenile_db, variant):
        # The paper's worst-case function mixes price with the heavily tied
        # length_width_ratio attribute.
        ranking = make_ranking(
            bluenile_db.schema, {"price": 1.0, "length_width_ratio": 1.0}
        )
        rows, _, _ = run_md(bluenile_db, SearchQuery.everything(), ranking, variant, depth=5)
        truth = bluenile_db.true_ranking(SearchQuery.everything(), ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_a_cluster_denser_than_k_is_crawled(self, variant):
        """More than k tuples share the best point, so no query separates
        them: the box around them is crawled, and the tuples only the crawl
        returned are emitted in their place too."""
        schema = diamond_schema()
        database = HiddenWebDatabase(
            generate_diamond_catalog(SMALL_DIAMONDS),
            schema,
            FeaturedScoreRanking("price", boost_weight=2500.0),
            system_k=10,
        )
        everything = SearchQuery.everything()
        cheapest, _ = schema.domain_bounds("price")
        _, largest = schema.domain_bounds("carat")
        cluster = database.all_matches(everything)[:2 * database.system_k]
        database.apply_delta(upserts=[dict(row, price=cheapest, carat=largest) for row in cluster])
        ranking = make_ranking(schema, {"price": 1.0, "carat": -0.5})
        rows, _, session = run_md(database, everything, ranking, variant, depth=len(cluster) + 5)
        truth = database.true_ranking(everything, ranking.score, limit=len(cluster) + 5)
        assert_matches_ground_truth(rows, truth, ranking)
        assert session.statistics.dense_regions_built >= 1


class TestBehaviour:
    def test_requires_at_least_two_attributes(self, bluenile_db):
        with pytest.raises(RankingFunctionError):
            MultiDimGetNext(
                engine=QueryEngine(bluenile_db),
                base_query=SearchQuery.everything(),
                ranking=LinearRankingFunction({"price": 1.0}),
                session=Session("x"),
            )

    def test_rerank_needs_a_dense_index(self, bluenile_db):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        with pytest.raises(ValueError):
            MultiDimGetNext(
                engine=QueryEngine(bluenile_db),
                base_query=SearchQuery.everything(),
                ranking=ranking,
                session=Session("x"),
            )

    def test_baseline_is_not_cheaper_than_binary_when_anticorrelated(self, bluenile_price_db):
        ranking = make_ranking(bluenile_price_db.schema, {"price": -1.0, "carat": -0.5})
        _, baseline_engine, _ = run_md(
            bluenile_price_db, SearchQuery.everything(), ranking, Variant.BASELINE, depth=4
        )
        _, binary_engine, _ = run_md(
            bluenile_price_db, SearchQuery.everything(), ranking, Variant.BINARY, depth=4
        )
        assert binary_engine.queries_issued() <= baseline_engine.queries_issued()

    def test_parallel_groups_recorded_for_binary(self, bluenile_db):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        _, _, session = run_md(
            bluenile_db, SearchQuery.everything(), ranking, Variant.BINARY, depth=5
        )
        assert session.statistics.parallel_iterations >= 1
        assert session.statistics.parallel_fraction > 0.0

    def test_session_cache_reduces_cost_of_deep_paging(self, zillow_db):
        """Ten Get-Next calls reuse the tuples and open boxes the first one
        paid for: they cost well under ten times one call (36 queries
        against 20 at k = 10)."""
        ranking = make_ranking(zillow_db.schema, {"price": 1.0, "squarefeet": -0.3})
        _, first_engine, _ = run_md(
            zillow_db, SearchQuery.everything(), ranking, Variant.RERANK, depth=1
        )
        rows, deep_engine, _ = run_md(
            zillow_db, SearchQuery.everything(), ranking, Variant.RERANK, depth=10
        )
        truth = zillow_db.true_ranking(SearchQuery.everything(), ranking.score, limit=10)
        assert_matches_ground_truth(rows, truth, ranking)
        assert deep_engine.queries_issued() < 3 * first_engine.queries_issued()

    def test_dense_regions_indexed_and_amortized(self, bluenile_db, monkeypatch):
        """With an aggressive dense threshold, MD-RERANK builds regions on the
        first request; the second one, sharing the index and the result
        cache, reads them at zero queries."""
        monkeypatch.setattr("repro.core.dense_index.DENSE_RATIO_THRESHOLD", 0.05)
        cache = QueryResultCache()
        index = DenseRegionIndex(cache, default_namespace(bluenile_db))
        ranking = make_ranking(
            bluenile_db.schema, {"price": 1.0, "length_width_ratio": 1.0}
        )
        _, cold_engine, cold_session = run_md(
            bluenile_db, SearchQuery.everything(), ranking, Variant.RERANK,
            depth=8, dense_index=index, result_cache=cache,
        )
        rows, warm_engine, warm_session = run_md(
            bluenile_db, SearchQuery.everything(), ranking, Variant.RERANK,
            depth=8, dense_index=index, result_cache=cache,
        )
        assert cold_session.statistics.dense_regions_built >= 1
        assert index.region_count() >= 1
        assert cold_engine.queries_issued() > 0 and warm_engine.queries_issued() == 0
        assert warm_session.statistics.dense_index_hits >= 1
        assert warm_session.statistics.dense_regions_built == 0
        truth = bluenile_db.true_ranking(SearchQuery.everything(), ranking.score, limit=8)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_statistics_totals_consistent(self, bluenile_db):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        rows, engine, session = run_md(
            bluenile_db, SearchQuery.everything(), ranking, Variant.RERANK, depth=4
        )
        snapshot = session.statistics.snapshot()
        assert snapshot["tuples_returned"] == len(rows) == 4
        assert snapshot["external_queries"] == engine.queries_issued()
        assert sum(snapshot["iteration_group_sizes"]) == snapshot["external_queries"]
