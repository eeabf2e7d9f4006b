"""Tests for the data-source registry and the QR2 service application."""

import threading

import pytest

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.core.reranker import QueryReranker
from repro.dataset.table import format_grid
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.exceptions import DataSourceError, QueryError, SessionError
from repro.httpsim.client import HttpClient, UrllibTransport
from repro.httpsim.server import serve_database_over_socket
from repro.service.app import QR2Service
from repro.service.sources import DataSource, DataSourceRegistry, build_default_registry
from repro.webdb.faults import FaultPlan
from repro.webdb.remote import QUERY_WORKERS, RemoteTopKInterface
from tests.conftest import query_threads
from tests.reference import reference_text_grid


@pytest.fixture(scope="module")
def registry() -> DataSourceRegistry:
    return build_default_registry(
        diamond_config=DiamondCatalogConfig(size=350, seed=5),
        housing_config=HousingCatalogConfig(size=400, seed=6),
        database_config=DatabaseConfig(system_k=10),
        rerank_config=RerankConfig(),
    )


@pytest.fixture()
def service(registry) -> QR2Service:
    return QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))


class TestRegistry:
    def test_default_registry_has_both_sources(self, registry):
        assert registry.names() == ["bluenile", "zillow"]

    def test_unknown_source_raises(self, registry):
        with pytest.raises(DataSourceError):
            registry.get("amazon")

    def test_source_description(self, registry):
        description = registry.get("bluenile").describe()
        assert description["name"] == "bluenile"
        assert "price" in description["ranking_attributes"]
        assert "shape" in description["filtering_attributes"]
        assert description["system_k"] == 10

    def test_describe_all(self, registry):
        assert len(registry.describe_all()) == 2


class TestSessions:
    def test_create_and_inspect_session(self, service):
        session_id = service.create_session()
        info = service.session_info(session_id)
        assert info["session_id"] == session_id
        assert info["emitted"] == 0

    def test_unknown_session_raises(self, service):
        with pytest.raises(SessionError):
            service.session_info("nope")
        with pytest.raises(SessionError):
            service.get_next_page("nope")

    def test_statistics_requires_active_query(self, service):
        session_id = service.create_session()
        with pytest.raises(SessionError):
            service.statistics(session_id)

    def test_expire_idle_sessions(self, registry):
        quick = QR2Service(
            registry=registry, config=ServiceConfig(session_ttl_seconds=0.0)
        )
        quick.create_session()
        assert quick.expire_idle_sessions() == 1


class TestQueryFlow:
    def test_submit_query_with_sliders_returns_ranked_page(self, service, registry):
        session_id = service.create_session()
        response = service.submit_query(
            session_id,
            "bluenile",
            filters={"ranges": {"carat": (0.5, 3.0)}},
            sliders={"price": 1.0, "carat": -0.5},
            page_size=5,
        )
        assert response["source"] == "bluenile"
        assert len(response["rows"]) == 5
        assert response["page"] == 1
        statistics = response["statistics"]
        assert statistics["external_queries"] > 0
        assert statistics["tuples_returned"] == 5
        # The page must be sorted by the requested function (ascending score).
        database = registry.get("bluenile").interface
        from repro.service.sliders import ranking_from_sliders

        ranking = ranking_from_sliders({"price": 1.0, "carat": -0.5}, database.schema)
        scores = [ranking.score(row) for row in response["rows"]]
        assert scores == sorted(scores)

    def test_submit_query_matches_ground_truth(self, service, registry):
        session_id = service.create_session()
        response = service.submit_query(
            session_id,
            "zillow",
            filters={"memberships": {"city": ["arlington", "dallas"]}},
            ranking={"attribute": "price", "ascending": True},
            page_size=8,
        )
        database = registry.get("zillow").interface
        from repro.webdb.query import SearchQuery

        query = SearchQuery.build(memberships={"city": ["arlington", "dallas"]})
        truth = database.true_ranking(query, lambda row: float(row["price"]), limit=8)
        assert [row["id"] for row in response["rows"]] == [row["id"] for row in truth]

    def test_get_next_page_continues_the_ranking(self, service, registry):
        session_id = service.create_session()
        first = service.submit_query(
            session_id,
            "zillow",
            sliders={"price": 1.0, "squarefeet": -0.3},
            page_size=4,
        )
        second = service.get_next_page(session_id)
        assert second["page"] == 2
        assert len(second["rows"]) == 4
        assert not (
            {row["id"] for row in first["rows"]} & {row["id"] for row in second["rows"]}
        )
        database = registry.get("zillow").interface
        from repro.service.sliders import ranking_from_sliders
        from repro.webdb.query import SearchQuery

        ranking = ranking_from_sliders({"price": 1.0, "squarefeet": -0.3}, database.schema)
        truth = database.true_ranking(SearchQuery.everything(), ranking.score, limit=8)
        got = [row["id"] for row in first["rows"] + second["rows"]]
        assert got == [row["id"] for row in truth]

    def test_statistics_panel_fields(self, service):
        session_id = service.create_session()
        service.submit_query(session_id, "bluenile", sliders={"price": 1.0})
        panel = service.statistics(session_id)
        assert {"external_queries", "processing_seconds", "parallel_fraction", "dense_index"} <= set(panel)

    def test_new_query_resets_results_but_keeps_cache(self, service):
        session_id = service.create_session()
        service.submit_query(session_id, "bluenile", sliders={"price": 1.0}, page_size=5)
        seen_before = service.session_info(session_id)["seen_tuples"]
        response = service.submit_query(
            session_id, "bluenile", sliders={"carat": -1.0}, page_size=5
        )
        assert response["statistics"]["tuples_returned"] == 5
        assert service.session_info(session_id)["seen_tuples"] >= seen_before

    def test_rendered_table_present(self, registry, service):
        """A page carries no text grid; the caller renders its rows."""
        source = registry.get("bluenile")
        columns = source.result_columns or source.schema.columns()
        session_id = service.create_session()
        response = service.submit_query(session_id, "bluenile", sliders={"price": 1.0})
        assert "rendered" not in response
        grid = format_grid(columns, response["rows"])
        assert "price" in grid
        assert grid == reference_text_grid(columns, response["rows"])

    def test_rendered_is_byte_identical_to_the_table_round_trip(self, registry, service):
        """Every page, down to the empty one past exhaustion, renders as the
        ``ColumnTable.from_rows(rows).to_text()`` it used to be built by."""
        source = registry.get("bluenile")
        columns = source.result_columns or source.schema.columns()
        session_id = service.create_session()
        page = service.submit_query(
            session_id, "bluenile", filters={"ranges": {"carat": (3.0, 5.0)}},
            sliders={"price": -1.0, "carat": 0.5}, page_size=4,
        )  # fmt: skip
        pages = [page]
        while page["rows"]:
            page = service.get_next_page(session_id)
            pages.append(page)
        assert len(pages) >= 3
        for page in pages:
            grid = format_grid(columns, page["rows"])
            assert grid == reference_text_grid(columns, page["rows"], max_rows=4)

    def test_page_statistics_are_the_panels_request_entries(self, service):
        """After every page, each entry of the page's ``statistics`` (the
        request counters and its own ``resilience`` entries) reads as in the
        full panel, which adds the service blocks around them."""
        session_id = service.create_session()
        page = service.submit_query(
            session_id, "bluenile", filters={"ranges": {"carat": (2.5, 5.0)}},
            sliders={"price": -1.0, "carat": 0.75}, page_size=4,
        )  # fmt: skip
        assert page["statistics"]["external_queries"] > 0
        pages = 1
        while True:
            statistics = page["statistics"]
            panel = service.statistics(session_id)
            assert set(statistics["resilience"]) == {
                "degraded_results", "stale_serves", "retried_queries",
            }  # fmt: skip
            for name, value in statistics.items():
                if name == "resilience":
                    for entry, count in value.items():
                        assert panel["resilience"][entry] == count, entry
                else:
                    assert panel[name] == value, name
            assert {"result_cache", "rerank_feed", "warming"} <= set(panel) - set(statistics)
            assert "source" in panel["resilience"]
            if not page["rows"]:
                break
            page = service.get_next_page(session_id)
            pages += 1
        assert pages >= 3

    def test_exhausted_flag_on_small_result(self, service):
        session_id = service.create_session()
        response = service.submit_query(
            session_id,
            "bluenile",
            filters={"ranges": {"carat": (4.5, 5.0)}},
            sliders={"price": 1.0},
            page_size=50,
        )
        assert response["exhausted"] in (True, False)
        follow_up = service.get_next_page(session_id)
        assert follow_up["exhausted"]

    def test_list_and_describe_sources(self, service):
        sources = service.list_sources()
        assert {entry["name"] for entry in sources} == {"bluenile", "zillow"}
        description = service.describe_source("zillow")
        assert any(f["name"] == "paper_fig4_demo" for f in description["popular_functions"])


class TestValidation:
    def test_missing_ranking_rejected(self, service):
        session_id = service.create_session()
        with pytest.raises(QueryError):
            service.submit_query(session_id, "bluenile")

    def test_both_sliders_and_ranking_rejected(self, service):
        session_id = service.create_session()
        with pytest.raises(QueryError):
            service.submit_query(
                session_id,
                "bluenile",
                sliders={"price": 1.0},
                ranking={"attribute": "price"},
            )

    def test_bad_page_size_rejected(self, service):
        session_id = service.create_session()
        with pytest.raises(QueryError):
            service.submit_query(session_id, "bluenile", sliders={"price": 1.0}, page_size=0)

    def test_page_size_capped(self, registry):
        service = QR2Service(
            registry=registry, config=ServiceConfig(default_page_size=5, max_page_size=7)
        )
        session_id = service.create_session()
        response = service.submit_query(
            session_id, "bluenile", sliders={"price": 1.0}, page_size=100
        )
        assert response["page_size"] == 7

    def test_unknown_source_rejected(self, service):
        session_id = service.create_session()
        with pytest.raises(DataSourceError):
            service.submit_query(session_id, "amazon", sliders={"price": 1.0})

    def test_bad_filters_shape_rejected(self, service):
        session_id = service.create_session()
        with pytest.raises(QueryError):
            service.submit_query(
                session_id, "bluenile", filters={"ranges": [1, 2]}, sliders={"price": 1.0}
            )

    def test_unknown_filter_attribute_rejected(self, service):
        session_id = service.create_session()
        with pytest.raises(Exception):
            service.submit_query(
                session_id,
                "bluenile",
                filters={"ranges": {"bogus": (0, 1)}},
                sliders={"price": 1.0},
            )


class TestStreamLifecycle:
    """Streams must be closed whenever the service lets go of them (request
    replacement, expiry, shutdown); the query threads belong to the sources
    and end with the service."""

    def _active_stream(self, service, session_id):
        return service._requests[session_id].stream

    def test_request_replacement_closes_the_old_stream(self, registry):
        service = QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))
        session_id = service.create_session()
        service.submit_query(session_id, "bluenile", sliders={"price": 1.0})
        old_stream = self._active_stream(service, session_id)
        service.submit_query(session_id, "bluenile", sliders={"carat": -1.0})
        assert old_stream.closed
        assert not self._active_stream(service, session_id).closed

    def test_expiring_a_session_closes_its_stream(self, registry):
        service = QR2Service(
            registry=registry, config=ServiceConfig(session_ttl_seconds=0.0)
        )
        session_id = service.create_session()
        service.submit_query(session_id, "zillow", sliders={"price": 1.0})
        stream = self._active_stream(service, session_id)
        assert service.expire_idle_sessions() == 1
        assert stream.closed

    def test_service_close_closes_active_streams(self, registry):
        service = QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))
        session_id = service.create_session()
        service.submit_query(session_id, "bluenile", sliders={"price": 1.0})
        stream = self._active_stream(service, session_id)
        service.close()
        assert stream.closed
        # close() is idempotent and leaves the registry usable.
        service.close()

    def test_in_process_sources_start_no_query_thread(self):
        # Really sleeping, perturbed shards settle every group on the
        # request's own thread: only a remote adapter holds a query pool.
        before = threading.enumerate()
        registry = build_default_registry(
            diamond_config=DiamondCatalogConfig(size=200, seed=5),
            housing_config=HousingCatalogConfig(size=200, seed=6),
            database_config=DatabaseConfig(
                system_k=10,
                shards=2,
                fault_plan=FaultPlan(seed=3, slow_rate=0.2),
                latency_seconds=0.00001,
                latency_jitter=0.0,
                latency_sleep=True,
            ),
        )
        service = QR2Service(registry=registry)
        for sliders in ({"price": 1.0, "carat": -0.5}, {"price": -1.0, "carat": 0.5}):
            session_id = service.create_session()
            service.submit_query(session_id, "bluenile", sliders=sliders)
            service.submit_query(session_id, "zillow", sliders={"price": 1.0, "squarefeet": -0.5})
        assert query_threads(before) == []
        service.close()

    def test_service_close_ends_the_remote_adapters_pool(self, bluenile_db):
        handle = serve_database_over_socket(bluenile_db)
        transport = UrllibTransport(handle.base_url)
        before = threading.enumerate()
        try:
            remote = RemoteTopKInterface(HttpClient(transport))
            registry = DataSourceRegistry()
            registry.register(
                DataSource(
                    name="bluenile",
                    title="Blue Nile over a socket",
                    interface=remote,
                    reranker=QueryReranker(remote),
                    result_columns=["id", "price", "carat"],
                )
            )
            service = QR2Service(registry=registry)
            for sliders in ({"price": 1.0, "carat": -0.5}, {"price": -1.0, "carat": 0.5}):
                session_id = service.create_session()
                service.submit_query(session_id, "bluenile", sliders=sliders)
            assert 0 < len(query_threads(before)) <= QUERY_WORKERS
            service.close()
            assert query_threads(before) == []
        finally:
            transport.close()
            handle.shutdown()

    def test_panel_surfaces_feed_counters(self):
        # A private registry: the module-scoped one shares feed stores across
        # tests, which would make the exact leader/follower counters below
        # depend on test order.
        registry = build_default_registry(
            diamond_config=DiamondCatalogConfig(size=200, seed=5),
            housing_config=HousingCatalogConfig(size=200, seed=6),
            database_config=DatabaseConfig(system_k=10),
            rerank_config=RerankConfig(),
        )
        service = QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))
        session_id = service.create_session()
        first = service.submit_query(
            session_id, "bluenile", sliders={"price": 1.0, "carat": -0.25}
        )
        other = service.create_session()
        second = service.submit_query(
            other, "bluenile", sliders={"price": 1.0, "carat": -0.25}
        )
        assert first["statistics"]["feed_leader_advances"] == 5
        assert second["statistics"]["feed_hits"] == 5
        assert second["statistics"]["feed_replayed_tuples"] == 5
        assert second["statistics"]["external_queries"] == 0
        assert "rerank_feed" not in second["statistics"]
        store_snapshot = service.statistics(other)["rerank_feed"]
        assert store_snapshot is not None
        assert store_snapshot["followers"] >= 1
        assert [row["id"] for row in second["rows"]] == [
            row["id"] for row in first["rows"]
        ]
