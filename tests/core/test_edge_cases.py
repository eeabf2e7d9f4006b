"""Edge-case tests for the reranking algorithms and their configuration.

These cover the awkward corners a third-party service actually hits in
production: filters that pin the ranking attribute to a single value, filters
that clip the ranking attribute's domain, RERANK running with the dense index
disabled, budget exhaustion mid-stream, and configuration copy helpers.
"""

import pytest

from repro.config import RerankConfig, ServiceConfig
from repro.core import dense_index
from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.webdb.query import SearchQuery

from tests.conftest import assert_matches_ground_truth


class TestConfigObjects:
    def test_service_config_defaults(self):
        config = ServiceConfig()
        assert config.default_page_size <= config.max_page_size
        assert isinstance(config.rerank, RerankConfig)


class TestFilterEdgeCases:
    def test_point_filter_on_ranking_attribute(self, bluenile_db):
        """The filter pins the ranking attribute to one value; the stream must
        enumerate exactly that value group and then exhaust."""
        values = bluenile_db.attribute_values("carat")
        pinned = max(set(values), key=values.count)
        query = SearchQuery.build(ranges={"carat": (pinned, pinned)})
        expected = len(bluenile_db.all_matches(query))
        ranking = SingleAttributeRanking("carat", ascending=True)
        stream = QueryReranker(bluenile_db).rerank(query, ranking, algorithm=Algorithm.RERANK)
        rows = list(stream)
        assert len(rows) == expected
        assert all(row["carat"] == pinned for row in rows)

    def test_filter_clips_ranking_domain(self, bluenile_db):
        """A range filter on the ranking attribute restricts the axis the
        algorithms search; results must respect it exactly."""
        query = SearchQuery.build(ranges={"price": (2000.0, 6000.0)})
        ranking = SingleAttributeRanking("price", ascending=False)
        stream = QueryReranker(bluenile_db).rerank(query, ranking, algorithm=Algorithm.BINARY)
        rows = stream.top(8)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=8)
        assert_matches_ground_truth(rows, truth, ranking)
        assert all(2000.0 <= row["price"] <= 6000.0 for row in rows)

    def test_md_with_filter_on_ranking_attribute(self, zillow_db):
        query = SearchQuery.build(ranges={"price": (100000.0, 400000.0)})
        ranking = LinearRankingFunction(
            {"price": 1.0, "squarefeet": -0.5},
            normalizer=MinMaxNormalizer.from_schema(zillow_db.schema, ["price", "squarefeet"]),
        )
        stream = QueryReranker(zillow_db).rerank(query, ranking, algorithm=Algorithm.RERANK)
        rows = stream.top(6)
        truth = zillow_db.true_ranking(query, ranking.score, limit=6)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_query_matching_single_tuple(self, bluenile_db):
        row = bluenile_db.all_matches(SearchQuery.everything())[0]
        query = SearchQuery.build(ranges={"price": (row["price"], row["price"]),
                                          "carat": (row["carat"], row["carat"])})
        ranking = SingleAttributeRanking("depth", ascending=True)
        stream = QueryReranker(bluenile_db).rerank(query, ranking)
        rows = list(stream)
        assert len(rows) == len(bluenile_db.all_matches(query)) >= 1


class TestConfigurationVariants:
    def test_binary_without_dense_index_still_correct(self, bluenile_db):
        query = SearchQuery.build(ranges={"length_width_ratio": (0.995, 1.3)})
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
        depth = bluenile_db.system_k + 3
        stream = QueryReranker(bluenile_db).rerank(
            query, ranking, algorithm=Algorithm.BINARY
        )
        rows = stream.top(depth)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=depth)
        assert_matches_ground_truth(rows, truth, ranking)
        assert stream.statistics.dense_index_hits == 0

    def test_density_rule_reads_its_two_constants(self, monkeypatch):
        threshold, depth = dense_index.DENSE_RATIO_THRESHOLD, dense_index.MAX_BINARY_ROUNDS
        assert dense_index.is_dense(threshold / 2, 0)
        assert not dense_index.is_dense(threshold, depth - 1)
        assert dense_index.is_dense(1.0, depth)
        monkeypatch.setattr(dense_index, "DENSE_RATIO_THRESHOLD", 0.2)
        assert dense_index.is_dense(0.1, 0)

    def test_aggressive_dense_threshold_still_correct(self, bluenile_db, monkeypatch):
        monkeypatch.setattr(dense_index, "DENSE_RATIO_THRESHOLD", 0.2)
        ranking = LinearRankingFunction(
            {"price": 1.0, "carat": -0.5},
            normalizer=MinMaxNormalizer.from_schema(bluenile_db.schema, ["price", "carat"]),
        )
        stream = QueryReranker(bluenile_db).rerank(
            SearchQuery.everything(), ranking, algorithm=Algorithm.RERANK
        )
        rows = stream.top(5)
        truth = bluenile_db.true_ranking(SearchQuery.everything(), ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)
        assert stream.statistics.dense_regions_built >= 1

    def test_tiny_query_budget_still_serves_cached_answers(self, bluenile_db):
        """Once the budget is exhausted, further Get-Next calls raise — but the
        tuples already fetched remain available on the stream."""
        from repro.exceptions import QueryBudgetExceeded
        from repro.webdb.counters import QueryBudget

        ranking = SingleAttributeRanking("price", ascending=True)
        reranker = QueryReranker(bluenile_db)
        stream = reranker.rerank(
            SearchQuery.everything(), ranking, budget=QueryBudget(6), algorithm=Algorithm.RERANK
        )
        fetched = []
        with pytest.raises(QueryBudgetExceeded):
            for _ in range(100):
                row = stream.get_next()
                if row is None:
                    break
                fetched.append(row)
        assert stream.returned_so_far == fetched

    def test_streams_over_same_reranker_are_independent(self, bluenile_db):
        """Two concurrent user requests must not leak emitted state into each
        other (they share only the dense-region index)."""
        ranking = SingleAttributeRanking("carat", ascending=False)
        reranker = QueryReranker(bluenile_db)
        first = reranker.rerank(SearchQuery.everything(), ranking)
        second = reranker.rerank(SearchQuery.everything(), ranking)
        a = [row["id"] for row in first.top(5)]
        b = [row["id"] for row in second.top(5)]
        assert a == b  # identical requests, identical answers

    def test_exception_hierarchy(self):
        from repro import exceptions

        for name in (
            "SchemaError",
            "QueryError",
            "RankingFunctionError",
            "QueryBudgetExceeded",
            "CrawlError",
            "DenseRegionError",
            "SessionError",
            "DataSourceError",
            "WireFormatError",
            "RemoteInterfaceError",
        ):
            error_type = getattr(exceptions, name)
            assert issubclass(error_type, exceptions.QR2Error)
        error = exceptions.QueryBudgetExceeded(budget=3, issued=5)
        assert error.budget == 3 and error.issued == 5
