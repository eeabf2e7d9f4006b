"""Tests for the data-source registry's persistent-cache wiring and for the
service operating end-to-end on top of the HTTP-backed remote interface."""

import pytest

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.httpsim.client import HttpClient, InProcessTransport
from repro.httpsim.server import SearchHttpServer
from repro.service.app import QR2Service
from repro.service.sources import DataSource, DataSourceRegistry, build_default_registry
from repro.webdb.remote import RemoteTopKInterface


class TestPersistentRegistry:
    def test_dense_cache_files_created_per_source(self, tmp_path):
        prefix = str(tmp_path / "qr2-cache")
        registry = build_default_registry(
            diamond_config=DiamondCatalogConfig(size=250, seed=21),
            housing_config=HousingCatalogConfig(size=250, seed=22),
            database_config=DatabaseConfig(system_k=10),
            rerank_config=RerankConfig(),
            dense_cache_path=prefix,
        )
        # Force a dense-region crawl on the diamond source so the cache fills.
        source = registry.get("bluenile")
        from repro.core.functions import SingleAttributeRanking
        from repro.webdb.query import SearchQuery

        query = SearchQuery.build(ranges={"length_width_ratio": (0.995, 1.3)})
        stream = source.reranker.rerank(
            query, SingleAttributeRanking("length_width_ratio", ascending=True),
            algorithm=Algorithm.RERANK,
        )
        stream.top(source.interface.system_k + 3)
        assert source.reranker.dense_index.region_count() >= 1
        assert (tmp_path / "qr2-cache.bluenile.sqlite").exists()
        assert (tmp_path / "qr2-cache.zillow.sqlite").exists()

    def test_boot_verifies_regions_stored_over_another_catalog(self, tmp_path):
        """A registry that boots on a dense-region cache written over a
        different catalog re-crawls the stored regions before its first
        request: the page equals the live ground truth."""
        from repro.core.functions import SingleAttributeRanking
        from repro.webdb.query import SearchQuery

        prefix = str(tmp_path / "qr2-cache")
        query = SearchQuery.build(ranges={"length_width_ratio": (0.995, 1.3)})
        ranking = SingleAttributeRanking("length_width_ratio", ascending=True)

        def boot_and_page(diamond_seed):
            registry = build_default_registry(
                diamond_config=DiamondCatalogConfig(size=400, seed=diamond_seed),
                housing_config=HousingCatalogConfig(size=200, seed=5),
                database_config=DatabaseConfig(system_k=10),
                dense_cache_path=prefix,
            )
            source = registry.get("bluenile")
            rows = source.reranker.rerank(query, ranking).top(25)
            truth = source.interface.true_ranking(query, ranking.score, limit=25)
            source.reranker.close()
            registry.get("zillow").reranker.close()
            return [row["id"] for row in rows], [row["id"] for row in truth]

        first, first_truth = boot_and_page(21)
        assert first == first_truth
        second, second_truth = boot_and_page(22)
        assert second == second_truth

    def test_registry_register_replaces(self):
        registry = build_default_registry(
            diamond_config=DiamondCatalogConfig(size=220, seed=31),
            housing_config=HousingCatalogConfig(size=220, seed=32),
            database_config=DatabaseConfig(system_k=10),
        )
        original = registry.get("bluenile")
        replacement = DataSource(
            name="bluenile",
            title="replacement",
            interface=original.interface,
            reranker=original.reranker,
        )
        registry.register(replacement)
        assert registry.get("bluenile").title == "replacement"
        assert len(registry.names()) == 2

    def test_default_result_columns_fall_back_to_schema(self):
        registry = build_default_registry(
            diamond_config=DiamondCatalogConfig(size=220, seed=41),
            housing_config=HousingCatalogConfig(size=220, seed=42),
            database_config=DatabaseConfig(system_k=10),
        )
        original = registry.get("zillow")
        bare = DataSource(
            name="bare",
            title="no explicit columns",
            interface=original.interface,
            reranker=original.reranker,
        )
        description = bare.describe()
        assert description["result_columns"] == original.schema.columns()


class TestServiceOverRemoteInterface:
    @pytest.fixture()
    def remote_service(self, bluenile_db):
        """A QR2 service whose only source is reached through the HTTP API —
        the exact production wiring of the third-party deployment."""
        remote = RemoteTopKInterface(
            HttpClient(InProcessTransport(SearchHttpServer(bluenile_db)))
        )
        registry = DataSourceRegistry()
        registry.register(
            DataSource(
                name="bluenile",
                title="Blue Nile via HTTP",
                interface=remote,
                reranker=QueryReranker(remote, config=RerankConfig()),
                result_columns=["id", "price", "carat", "cut"],
            )
        )
        return QR2Service(registry=registry, config=ServiceConfig(default_page_size=5)), remote

    def test_full_flow_over_remote_interface(self, remote_service, bluenile_db):
        service, remote = remote_service
        session_id = service.create_session()
        response = service.submit_query(
            session_id,
            "bluenile",
            filters={"ranges": {"carat": (0.5, 3.0)}},
            sliders={"price": 1.0, "carat": -0.5},
            page_size=5,
        )
        assert len(response["rows"]) == 5
        assert remote.queries_issued() == response["statistics"]["external_queries"]

        follow_up = service.get_next_page(session_id)
        assert follow_up["page"] == 2
        overlap = {row["id"] for row in response["rows"]} & {
            row["id"] for row in follow_up["rows"]
        }
        assert not overlap

    def test_remote_source_description(self, remote_service):
        service, _ = remote_service
        description = service.describe_source("bluenile")
        assert description["system_k"] == 10
        assert "price" in description["ranking_attributes"]
