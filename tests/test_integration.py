"""End-to-end integration tests.

These exercise the full production path of the QR2 system: the reranking
algorithms talking to a web database *through the HTTP search interface*
(exactly what the third-party service does against Blue Nile / Zillow), the
persistent dense-region cache surviving a service restart, and the boot-time
cache verification.
"""

import pytest

from repro.config import RerankConfig
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.httpsim.client import HttpClient, InProcessTransport
from repro.httpsim.server import SearchHttpServer
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from repro.webdb.remote import RemoteTopKInterface

from tests.conftest import assert_matches_ground_truth


@pytest.fixture()
def remote_bluenile(bluenile_db) -> RemoteTopKInterface:
    """The Blue Nile simulator reached only through its public HTTP API."""
    client = HttpClient(InProcessTransport(SearchHttpServer(bluenile_db)))
    return RemoteTopKInterface(client)


class TestRerankingOverHttp:
    def test_1d_reranking_through_the_http_interface(self, remote_bluenile, bluenile_db):
        ranking = SingleAttributeRanking("carat", ascending=False)
        query = SearchQuery.build(ranges={"price": (500.0, 20000.0)})
        reranker = QueryReranker(remote_bluenile, config=RerankConfig())
        stream = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
        rows = stream.top(6)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=6)
        assert_matches_ground_truth(rows, truth, ranking)
        # Every external query really went over the HTTP adapter.
        assert remote_bluenile.queries_issued() == stream.statistics.external_queries

    def test_md_reranking_through_the_http_interface(self, remote_bluenile, bluenile_db):
        normalizer = MinMaxNormalizer.from_schema(bluenile_db.schema, ["price", "carat"])
        ranking = LinearRankingFunction({"price": 1.0, "carat": -0.5}, normalizer=normalizer)
        reranker = QueryReranker(remote_bluenile, config=RerankConfig())
        stream = reranker.rerank(SearchQuery.everything(), ranking, algorithm=Algorithm.RERANK)
        rows = stream.top(5)
        truth = bluenile_db.true_ranking(SearchQuery.everything(), ranking.score, limit=5)
        assert_matches_ground_truth(rows, truth, ranking)

    def test_http_and_direct_interfaces_agree_on_query_cost(self, remote_bluenile, bluenile_db):
        ranking = SingleAttributeRanking("price", ascending=True)
        query = SearchQuery.build(memberships={"cut": ["ideal"]})
        direct = QueryReranker(bluenile_db).rerank(query, ranking, algorithm=Algorithm.BINARY)
        direct.top(5)
        via_http = QueryReranker(remote_bluenile).rerank(query, ranking, algorithm=Algorithm.BINARY)
        via_http.top(5)
        assert (
            via_http.statistics.external_queries == direct.statistics.external_queries
        )


class TestPersistentDenseCacheLifecycle:
    def test_index_survives_service_restart(self, bluenile_db, tmp_path):
        path = str(tmp_path / "dense-cache.sqlite")
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
        depth = bluenile_db.system_k + 5

        # First service instance: pays the crawl and persists the region.
        first_cache = DenseRegionCache(bluenile_db.schema, path=path)
        first = QueryReranker(bluenile_db, dense_cache=first_cache)
        cold = first.rerank(query, ranking, algorithm=Algorithm.RERANK)
        cold.top(depth)
        assert first.dense_index.region_count() >= 1
        first_cache.close()

        # Second service instance (fresh process in production): loads the
        # cache, verifies it against the live database, and answers cheaply.
        second_cache = DenseRegionCache(bluenile_db.schema, path=path)
        second = QueryReranker(bluenile_db, dense_cache=second_cache)
        counters = second.verify_dense_cache()
        assert counters["checked"] >= 1 and counters["refreshed"] == 0
        warm = second.rerank(query, ranking, algorithm=Algorithm.RERANK)
        rows = warm.top(depth)
        assert len(rows) == depth
        assert warm.statistics.external_queries < cold.statistics.external_queries
        second_cache.close()

    def test_boot_verification_refreshes_a_row_changed_while_down(self, tmp_path):
        """A region one of whose rows changed value while no instance was
        running is re-crawled at boot and kept, and the next request serves
        the live row, not the one read before the restart."""
        config = DiamondCatalogConfig(size=2000, seed=3)
        schema = diamond_schema()
        database = HiddenWebDatabase(
            generate_diamond_catalog(config),
            schema,
            FeaturedScoreRanking("price", boost_weight=2500.0),
            system_k=10,
        )
        path = str(tmp_path / "dense-cache.sqlite")
        region_query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)

        first_cache = DenseRegionCache(schema, path=path)
        QueryReranker(database, dense_cache=first_cache).rerank(region_query, ranking).top(20)
        [region] = first_cache.regions()
        first_cache.close()

        # While no instance runs, a cheap tuple of the region is repriced
        # out of the price filter below.
        inside = database.all_matches(SearchQuery.build(ranges=region.bounds))
        victim = min(inside, key=lambda row: (row["price"], row["id"]))
        assert victim["price"] <= 1000.0
        database.apply_delta(upserts=[{**victim, "price": 12648.0}])

        second_cache = DenseRegionCache(schema, path=path)
        second = QueryReranker(database, dense_cache=second_cache)
        counters = second.verify_dense_cache()
        assert counters == {"checked": 1, "refreshed": 0, "unchanged": 1}
        cheap = SearchQuery.build(
            ranges={"length_width_ratio": (0.99, 1.2), "price": (0.0, 1000.0)}
        )
        rows = second.rerank(cheap, ranking).top(500)
        assert victim["id"] not in {row["id"] for row in rows}
        truth = database.true_ranking(cheap, ranking.score)
        assert len(rows) == len(truth)
        assert_matches_ground_truth(rows, truth, ranking)
        second_cache.close()

    def test_results_identical_with_and_without_cache(self, bluenile_db, tmp_path):
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
        depth = bluenile_db.system_k + 3

        plain = QueryReranker(bluenile_db).rerank(query, ranking, algorithm=Algorithm.RERANK)
        cache = DenseRegionCache(bluenile_db.schema, path=str(tmp_path / "c.sqlite"))
        cached = QueryReranker(bluenile_db, dense_cache=cache).rerank(
            query, ranking, algorithm=Algorithm.RERANK
        )
        plain_rows = plain.top(depth)
        cached_rows = cached.top(depth)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=depth)
        assert_matches_ground_truth(plain_rows, truth, ranking)
        assert_matches_ground_truth(cached_rows, truth, ranking)
        cache.close()


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize(
        "weights",
        [
            {"price": 1.0, "carat": -0.5},
            {"price": 1.0, "carat": -0.1, "depth": -0.5},
            {"depth": 1.0, "table": -0.7},
        ],
    )
    def test_all_md_algorithms_agree(self, bluenile_db, weights):
        """Every algorithm family must produce the same score sequence for the
        same request — the user-visible answer does not depend on the engine."""
        normalizer = MinMaxNormalizer.from_schema(bluenile_db.schema, list(weights))
        ranking = LinearRankingFunction(weights, normalizer=normalizer)
        streams = {}
        for algorithm in (Algorithm.BASELINE, Algorithm.BINARY, Algorithm.RERANK, Algorithm.TA):
            stream = QueryReranker(bluenile_db).rerank(
                SearchQuery.everything(), ranking, algorithm=algorithm
            )
            streams[algorithm] = [round(ranking.score(r), 9) for r in stream.top(4)]
        reference = streams[Algorithm.BINARY]
        for algorithm, scores in streams.items():
            assert scores == reference, f"{algorithm} disagreed"
