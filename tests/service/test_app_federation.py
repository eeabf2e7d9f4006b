"""Service-level tests for sharded (federated) sources."""

import pytest

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.service.app import QR2Service
from repro.service.sources import build_default_registry
from repro.webdb.federation import FederatedInterface

DIAMONDS = DiamondCatalogConfig(size=350, seed=5)
HOUSING = HousingCatalogConfig(size=400, seed=6)


def make_service(shards: int, shard_by: str = "rank") -> QR2Service:
    database = DatabaseConfig(system_k=10, shards=shards, shard_by=shard_by)
    registry = build_default_registry(
        diamond_config=DIAMONDS,
        housing_config=HOUSING,
        database_config=database,
        rerank_config=RerankConfig(),
    )
    return QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))


@pytest.fixture(scope="module")
def sharded_service() -> QR2Service:
    return make_service(shards=3, shard_by="price")


@pytest.fixture(scope="module")
def unsharded_service() -> QR2Service:
    return make_service(shards=1)


class TestShardedSources:
    def test_sources_report_shard_count(self, sharded_service, unsharded_service):
        for description in sharded_service.list_sources():
            assert description["shards"] == 3
        for description in unsharded_service.list_sources():
            assert description["shards"] == 1

    def test_sharded_source_uses_federated_interface(self, sharded_service):
        source = sharded_service.registry.get("bluenile")
        assert isinstance(source.interface, FederatedInterface)
        assert source.reranker.federation is source.interface
        assert source.interface.shard_by == "price"

    def test_unsharded_source_has_no_federation(self, unsharded_service):
        source = unsharded_service.registry.get("bluenile")
        assert source.reranker.federation is None

    @pytest.mark.parametrize("source", ["bluenile", "zillow"])
    def test_pages_byte_identical_to_unsharded_service(
        self, sharded_service, unsharded_service, source
    ):
        request = {
            "source_name": source,
            "ranking": {"attribute": "price", "direction": "asc"},
        }
        federation = sharded_service.registry.get(source).reranker.federation
        scatters = federation.describe()["scatter_queries"]
        pages = {}
        external_queries = {}
        for service in (sharded_service, unsharded_service):
            session_id = service.create_session()
            response = service.submit_query(session_id, **request)
            rows = [dict(row) for row in response["rows"]]
            response = service.get_next_page(session_id)
            rows += [dict(row) for row in response["rows"]]
            pages[service] = rows
            external_queries[service] = response["statistics"]["external_queries"]
        assert pages[sharded_service] == pages[unsharded_service]
        # Only a scatter that reached a shard is an external query.
        assert (
            external_queries[sharded_service]
            == federation.describe()["scatter_queries"] - scatters
        )

    def test_statistics_panel_exposes_federation_block(self, sharded_service):
        session_id = sharded_service.create_session()
        sharded_service.submit_query(
            session_id,
            "bluenile",
            ranking={"attribute": "carat", "direction": "desc"},
        )
        panel = sharded_service.statistics(session_id)
        federation = panel["federation"]
        assert federation is not None
        assert federation["name"] == "bluenile"
        assert federation["shard_count"] == 3
        assert federation["scatter_queries"] > 0
        assert federation["fan_out"]["max"] <= 3
        assert len(federation["shards"]) == 3
        for shard_info in federation["shards"]:
            assert shard_info["name"].startswith("bluenile#")
            assert shard_info["queries"] >= 0

    def test_statistics_panel_federation_none_when_unsharded(
        self, unsharded_service
    ):
        session_id = unsharded_service.create_session()
        unsharded_service.submit_query(
            session_id,
            "bluenile",
            ranking={"attribute": "carat", "direction": "desc"},
        )
        panel = unsharded_service.statistics(session_id)
        assert panel["federation"] is None
