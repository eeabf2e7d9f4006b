"""Tests for the QR2 JSON HTTP API (in-process and over a real socket)."""

import json
import socket

import pytest

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.httpsim.client import HttpClient, UrllibTransport
from repro.httpsim.messages import HttpRequest
from repro.service.app import QR2Service
from repro.service.httpapp import QR2HttpApplication, serve_qr2_over_socket
from repro.service.sources import build_default_registry


@pytest.fixture(scope="module")
def application() -> QR2HttpApplication:
    registry = build_default_registry(
        diamond_config=DiamondCatalogConfig(size=300, seed=15),
        housing_config=HousingCatalogConfig(size=300, seed=16),
        database_config=DatabaseConfig(system_k=10),
        rerank_config=RerankConfig(),
    )
    service = QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))
    return QR2HttpApplication(service)


def _post(application, path, payload):
    return application.handle(HttpRequest.post_json(path, payload))


class TestRoutes:
    def test_list_sources(self, application):
        response = application.handle(HttpRequest.get("/qr2/sources"))
        assert response.ok
        names = {entry["name"] for entry in response.json()["sources"]}
        assert names == {"bluenile", "zillow"}

    def test_describe_source(self, application):
        response = application.handle(HttpRequest.get("/qr2/sources/bluenile"))
        assert response.ok
        assert response.json()["name"] == "bluenile"

    def test_describe_unknown_source_is_400(self, application):
        response = application.handle(HttpRequest.get("/qr2/sources/amazon"))
        assert response.status == 400

    def test_full_query_flow(self, application):
        created = _post(application, "/qr2/sessions", {})
        session_id = created.json()["session_id"]

        first = _post(
            application,
            "/qr2/query",
            {
                "session_id": session_id,
                "source": "bluenile",
                "filters": {"ranges": {"carat": [0.5, 3.0]}},
                "sliders": {"price": 1.0, "carat": -0.5},
                "page_size": 5,
            },
        )
        assert first.ok, first.body
        payload = first.json()
        assert len(payload["rows"]) == 5
        assert payload["statistics"]["external_queries"] > 0

        second = _post(application, "/qr2/next", {"session_id": session_id})
        assert second.ok
        assert second.json()["page"] == 2

        stats = application.handle(
            HttpRequest.get("/qr2/statistics", {"session": session_id})
        )
        assert stats.ok
        assert stats.json()["external_queries"] >= payload["statistics"]["external_queries"]

    def test_query_requires_json_object(self, application):
        response = application.handle(
            HttpRequest(method="POST", path="/qr2/query", body=json.dumps([1, 2]))
        )
        assert response.status == 400

    def test_query_error_is_400(self, application):
        created = _post(application, "/qr2/sessions", {})
        session_id = created.json()["session_id"]
        response = _post(
            application,
            "/qr2/query",
            {"session_id": session_id, "source": "bluenile"},  # no ranking
        )
        assert response.status == 400

    def test_unknown_route_404(self, application):
        assert application.handle(HttpRequest.get("/qr2/nope")).status == 404


class TestSocketDeployment:
    def test_end_to_end_over_socket(self, application):
        handle = serve_qr2_over_socket(application)
        try:
            client = HttpClient(UrllibTransport(handle.base_url))
            sources = client.get_json("/qr2/sources")
            assert {entry["name"] for entry in sources["sources"]} == {"bluenile", "zillow"}

            import urllib.request

            request = urllib.request.Request(
                handle.base_url + "/qr2/sessions", data=b"{}", method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as raw:
                session_id = json.loads(raw.read())["session_id"]

            body = json.dumps(
                {
                    "session_id": session_id,
                    "source": "zillow",
                    "sliders": {"price": 1.0, "squarefeet": -0.3},
                    "page_size": 3,
                }
            ).encode("utf-8")
            request = urllib.request.Request(
                handle.base_url + "/qr2/query", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as raw:
                payload = json.loads(raw.read())
            assert len(payload["rows"]) == 3
        finally:
            handle.shutdown()

    @pytest.mark.parametrize(
        "declared, status", [("-1", 400), ("abc", 400), ("999999999", 413)]
    )
    def test_bad_content_length_is_refused_before_the_read(
        self, application, capsys, declared, status
    ):
        """An unreadable length gets its 4xx at once — no handler thread
        parked on the socket, no request executed after the client left."""
        sessions = len(application.service._sessions)
        handle = serve_qr2_over_socket(application)
        try:
            with socket.create_connection(handle.address, timeout=1.0) as raw:
                raw.sendall(
                    b"POST /qr2/sessions HTTP/1.1\r\nHost: qr2\r\n"
                    + f"Content-Length: {declared}\r\n\r\n{{}}".encode("ascii")
                )
                reply = raw.recv(4096)
        finally:
            handle.shutdown()
        assert reply.split(b"\r\n", 1)[0].split()[1] == str(status).encode("ascii")
        assert len(application.service._sessions) == sessions
        assert "Traceback" not in capsys.readouterr().err
