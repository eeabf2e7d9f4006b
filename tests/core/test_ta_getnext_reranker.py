"""Tests for MD-TA, the Get-Next stream driver, and the QueryReranker facade."""

import pytest

from repro.config import RerankConfig
from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.getnext import GetNextStream
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.regions import HyperRectangle
from repro.core.reranker import Algorithm, QueryReranker, RerankRequest
from repro.core.session import Session
from repro.core.ta import ThresholdAlgorithmGetNext
from repro.exceptions import RankingFunctionError
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.counters import QueryBudget
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking

from tests.conftest import assert_matches_ground_truth


def make_ranking(schema, weights):
    return LinearRankingFunction(
        weights, normalizer=MinMaxNormalizer.from_schema(schema, list(weights))
    )


class TestThresholdAlgorithm:
    def run_ta(self, database, query, ranking, depth):
        session = Session("ta-test")
        engine = QueryEngine(database, statistics=session.statistics)
        getnext = ThresholdAlgorithmGetNext(
            engine=engine, base_query=query, ranking=ranking, session=session,
            dense_index=DenseRegionIndex(database.schema),
        )
        rows = []
        for _ in range(depth):
            row = getnext.next()
            if row is None:
                break
            rows.append(row)
        return rows, engine, session

    def test_matches_ground_truth_2d(self, zillow_db):
        ranking = make_ranking(zillow_db.schema, {"price": 1.0, "squarefeet": 1.0})
        rows, _, _ = self.run_ta(zillow_db, SearchQuery.everything(), ranking, depth=5)
        truth = zillow_db.true_ranking(SearchQuery.everything(), ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_matches_ground_truth_mixed_signs(self, bluenile_db):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        query = SearchQuery.build(ranges={"carat": (0.5, 3.0)})
        rows, _, _ = self.run_ta(bluenile_db, query, ranking, depth=5)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_matches_ground_truth_3d(self, bluenile_db):
        ranking = make_ranking(
            bluenile_db.schema, {"price": 1.0, "carat": -0.1, "depth": -0.5}
        )
        rows, _, _ = self.run_ta(bluenile_db, SearchQuery.everything(), ranking, depth=4)
        truth = bluenile_db.true_ranking(SearchQuery.everything(), ranking.score, limit=4)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_exhaustion_on_small_filter(self, bluenile_db):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        query = SearchQuery.build(ranges={"carat": (4.0, 5.0)})
        expected = len(bluenile_db.all_matches(query))
        rows, _, _ = self.run_ta(bluenile_db, query, ranking, depth=expected + 5)
        assert len(rows) == expected

    def test_underflowing_query(self, bluenile_db):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        query = SearchQuery.build(ranges={"price": (300.4, 300.6)})
        rows, _, _ = self.run_ta(bluenile_db, query, ranking, depth=2)
        assert rows == []

    def test_requires_two_attributes(self, bluenile_db):
        with pytest.raises(RankingFunctionError):
            ThresholdAlgorithmGetNext(
                engine=QueryEngine(bluenile_db),
                base_query=SearchQuery.everything(),
                ranking=LinearRankingFunction({"price": 1.0}),
                session=Session("x"),
                dense_index=DenseRegionIndex(bluenile_db.schema),
            )

    def test_variant_name(self, bluenile_db):
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        getnext = ThresholdAlgorithmGetNext(
            engine=QueryEngine(bluenile_db),
            base_query=SearchQuery.everything(),
            ranking=ranking,
            session=Session("x"),
            dense_index=DenseRegionIndex(bluenile_db.schema),
        )
        assert getnext.variant == "ta"


class TestGetNextStream:
    def _stream(self, reranker, db, weights=None, query=None):
        query = query or SearchQuery.everything()
        if weights is None:
            ranking = SingleAttributeRanking("price", ascending=True)
        else:
            ranking = make_ranking(db.schema, weights)
        return reranker.rerank(query, ranking, algorithm=Algorithm.RERANK), ranking, query

    def test_get_next_and_exhaustion(self, bluenile_reranker, bluenile_db):
        query = SearchQuery.build(ranges={"carat": (4.0, 5.0)})
        stream, ranking, _ = self._stream(bluenile_reranker, bluenile_db, query=query)
        count = len(bluenile_db.all_matches(query))
        rows = list(stream)
        assert len(rows) == count
        assert stream.exhausted
        assert stream.get_next() is None

    def test_next_page_and_top(self, bluenile_reranker, bluenile_db):
        stream, ranking, query = self._stream(bluenile_reranker, bluenile_db)
        first_page = stream.next_page(5)
        assert len(first_page) == 5
        top_8 = stream.top(8)
        assert len(top_8) == 8
        assert [r["id"] for r in top_8[:5]] == [r["id"] for r in first_page]
        truth = bluenile_db.true_ranking(query, ranking.score, limit=8)
        assert_matches_ground_truth(top_8, truth, ranking)
        assert len(stream.returned_so_far) == 8

    def test_invalid_page_size(self, bluenile_reranker, bluenile_db):
        stream, _, _ = self._stream(bluenile_reranker, bluenile_db)
        with pytest.raises(ValueError):
            stream.next_page(0)
        with pytest.raises(ValueError):
            stream.top(-1)

    def test_snapshot_and_description(self, bluenile_reranker, bluenile_db):
        stream, _, _ = self._stream(bluenile_reranker, bluenile_db, weights={"price": 1.0, "carat": -0.5})
        stream.next_page(3)
        snapshot = stream.snapshot()
        assert snapshot["returned"] == 3
        assert "price" in snapshot["description"]
        assert snapshot["statistics"]["external_queries"] > 0


class TestQueryReranker:
    def test_algorithm_parse(self):
        assert Algorithm.parse("1D-Baseline") is Algorithm.BASELINE
        assert Algorithm.parse("MD-RERANK") is Algorithm.RERANK
        assert Algorithm.parse("ta") is Algorithm.TA
        with pytest.raises(RankingFunctionError):
            Algorithm.parse("quantum")

    def test_rerank_request_describe(self):
        request = RerankRequest(
            query=SearchQuery.everything(),
            ranking=SingleAttributeRanking("price"),
            algorithm=Algorithm.BINARY,
        )
        text = request.describe()
        assert "binary" in text and "price" in text

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_every_algorithm_correct_through_facade_1d(self, bluenile_reranker, bluenile_db, algorithm):
        ranking = SingleAttributeRanking("carat", ascending=False)
        query = SearchQuery.build(ranges={"price": (500.0, 20000.0)})
        stream = bluenile_reranker.rerank(query, ranking, algorithm=algorithm)
        rows = stream.top(5)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_every_algorithm_correct_through_facade_md(self, zillow_reranker, zillow_db, algorithm):
        ranking = make_ranking(zillow_db.schema, {"price": 1.0, "squarefeet": -0.3})
        stream = zillow_reranker.rerank(SearchQuery.everything(), ranking, algorithm=algorithm)
        rows = stream.top(5)
        truth = zillow_db.true_ranking(SearchQuery.everything(), ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    @pytest.mark.parametrize(
        "dimensions, algorithm",
        [(1, algorithm) for algorithm in Algorithm if algorithm is not Algorithm.TA]
        + [(2, algorithm) for algorithm in Algorithm],
        ids=lambda value: value.value if isinstance(value, Algorithm) else f"{value}d",
    )
    def test_every_query_is_accounted_in_exactly_one_round_trip(
        self, bluenile_reranker, zillow_reranker, zillow_db, dimensions, algorithm
    ):
        """Every group an algorithm issues is one iteration; a group of more
        than one query went out in parallel, a group of one did not."""
        if dimensions == 1:
            reranker, ranking = bluenile_reranker, SingleAttributeRanking("carat", ascending=False)
        else:
            reranker = zillow_reranker
            ranking = make_ranking(zillow_db.schema, {"price": 1.0, "squarefeet": -0.3})
        stream = reranker.rerank(SearchQuery.everything(), ranking, algorithm=algorithm)
        stream.top(8)
        statistics = stream.statistics
        sizes = statistics.iteration_group_sizes
        assert statistics.iterations == len(sizes) > 0
        assert statistics.external_queries == sum(sizes)
        assert statistics.parallel_iterations == sum(1 for size in sizes if size > 1)
        assert statistics.parallel_queries == sum(size for size in sizes if size > 1)
        assert statistics.sequential_queries == sum(size for size in sizes if size == 1)

    def test_a_private_result_cache_answers_a_repeated_request(self, bluenile_db):
        """A reranker handed no cache owns one: a second session of the same
        request (the feed off, so it cannot replay) reuses the first's
        answers."""
        reranker = QueryReranker(bluenile_db, config=RerankConfig(enable_rerank_feed=False))
        ranking = make_ranking(bluenile_db.schema, {"price": 1.0, "carat": -0.5})
        first = reranker.rerank(SearchQuery.everything(), ranking)
        first_rows = first.top(5)
        assert len(reranker.result_cache) > 0
        second = reranker.rerank(SearchQuery.everything(), ranking)
        assert [row["id"] for row in second.top(5)] == [row["id"] for row in first_rows]
        assert second.statistics.result_cache_hits > 0
        assert second.statistics.external_queries < first.statistics.external_queries

    def test_apply_delta_retires_matching_private_cache_entries(
        self, diamond_catalog, diamond_schema_fixture
    ):
        # A private database: the test reprices a stone.
        database = HiddenWebDatabase(
            diamond_catalog,
            diamond_schema_fixture,
            FeaturedScoreRanking("price", boost_weight=2500.0),
            system_k=10,
        )
        reranker = QueryReranker(database)
        ranking = SingleAttributeRanking("price", ascending=True)
        rows = reranker.rerank(SearchQuery.everything(), ranking).top(5)
        entries = len(reranker.result_cache)
        summary = reranker.apply_delta(upserts=[{**rows[0], "price": rows[0]["price"] + 1.0}])
        assert 0 < summary["cache_entries_retired"] <= entries
        assert len(reranker.result_cache) == entries - summary["cache_entries_retired"]

    def test_close_keeps_the_private_result_cache(self, bluenile_db):
        # Closing changes no data: a repeat of a request served before it is
        # answered from the cache at zero external queries.
        reranker = QueryReranker(bluenile_db)
        ranking = SingleAttributeRanking("price", ascending=True)
        first = reranker.rerank(SearchQuery.everything(), ranking)
        rows = first.top(5)
        entries = len(reranker.result_cache)
        reranker.close()
        assert len(reranker.result_cache) == entries > 0
        again = reranker.rerank(SearchQuery.everything(), ranking)
        assert again.top(5) == rows
        assert again.statistics.external_queries == 0

    def test_md_requires_linear_function(self, bluenile_reranker):
        class FakeRanking(SingleAttributeRanking):
            @property
            def attributes(self):
                return ("price", "carat")

            def weight(self, attribute):
                return 1.0

            def score(self, row):
                return float(row["price"]) + float(row["carat"])

            @property
            def is_single_attribute(self):
                return False

        with pytest.raises(RankingFunctionError):
            bluenile_reranker.rerank(SearchQuery.everything(), FakeRanking("price"))

    def test_top_answers_stay_in_returned_so_far(self, bluenile_reranker):
        ranking = SingleAttributeRanking("price", ascending=True)
        stream = bluenile_reranker.rerank(SearchQuery.everything(), ranking)
        assert stream.top(4) == stream.returned_so_far
        assert len(stream.returned_so_far) == 4

    def test_budget_propagates(self, bluenile_price_db):
        reranker = QueryReranker(bluenile_price_db)
        ranking = SingleAttributeRanking("price", ascending=False)
        from repro.exceptions import QueryBudgetExceeded

        stream = reranker.rerank(
            SearchQuery.everything(), ranking, algorithm=Algorithm.BASELINE,
            budget=QueryBudget(2),
        )
        with pytest.raises(QueryBudgetExceeded):
            stream.top(10)

    def test_shared_dense_index_across_requests(self, bluenile_db):
        reranker = QueryReranker(bluenile_db)
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        depth = bluenile_db.system_k + 5
        cold = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
        cold.top(depth)
        warm = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
        warm.top(depth)
        assert warm.statistics.external_queries < cold.statistics.external_queries
        assert reranker.dense_index.region_count() >= 1

    def test_verify_dense_cache_roundtrip(self, bluenile_db, tmp_path):
        cache = DenseRegionCache(bluenile_db.schema, path=str(tmp_path / "dense.sqlite"))
        reranker = QueryReranker(bluenile_db, dense_cache=cache)
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        reranker.rerank(query, ranking, algorithm=Algorithm.RERANK).top(
            bluenile_db.system_k + 5
        )
        counters = reranker.verify_dense_cache()
        assert counters["checked"] >= 1
        assert counters["refreshed"] == 0  # the database did not change
        assert counters["checked"] == counters["unchanged"]

    def test_a_restart_plus_verify_dense_cache_serves_live_regions(
        self, diamond_catalog, diamond_schema_fixture, tmp_path
    ):
        # A private database: the test deletes a stone behind the reranker.
        database = HiddenWebDatabase(
            diamond_catalog,
            diamond_schema_fixture,
            FeaturedScoreRanking("price", boost_weight=2500.0),
            system_k=10,
        )
        cache = DenseRegionCache(database.schema, path=str(tmp_path / "dense.sqlite"))
        reranker = QueryReranker(database, dense_cache=cache)
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        reranker.rerank(query, ranking, algorithm=Algorithm.RERANK).top(
            database.system_k + 5
        )
        stored = cache.regions()[0]
        deleted = cache.rows_for_region(stored)[0]["id"]
        database.apply_delta(deletes=[deleted])
        # No delta reached the reranker: the store is refreshed the paper's
        # way, by a restart over the same store verified against the source.
        reranker.close()
        reranker = QueryReranker(database, dense_cache=cache)
        counters = reranker.verify_dense_cache()
        assert counters["checked"] == len(cache.regions()) >= 1
        assert counters["refreshed"] >= 1
        assert reranker.dense_index.cache is cache
        assert reranker.dense_index.region_count() >= 1
        box = HyperRectangle.from_bounds(stored.bounds)
        rows = reranker.dense_index.lookup(box)
        assert rows is not None and deleted not in {row["id"] for row in rows}
        cache.close()

    def test_verify_dense_cache_without_cache_is_noop(self, bluenile_reranker):
        assert bluenile_reranker.verify_dense_cache() == {
            "checked": 0,
            "refreshed": 0,
            "unchanged": 0,
        }
