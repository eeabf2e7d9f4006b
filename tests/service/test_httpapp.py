"""Tests for the QR2 JSON HTTP API (in-process and over a real socket)."""

import gc
import http.client
import json
import socket
import threading
import time

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
    return _fresh_application()


def _fresh_application() -> QR2HttpApplication:
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

    def test_statistics_route_returns_the_full_panel(self, application):
        """A page carries its request's counters; the service blocks are on
        ``GET /qr2/statistics``, as in the panel the library returns."""
        session_id = _post(application, "/qr2/sessions", {}).json()["session_id"]
        page = _post(
            application,
            "/qr2/query",
            {"session_id": session_id, "source": "zillow", "sliders": {"price": 1.0}},
        ).json()
        assert "rendered" not in page
        assert not {"result_cache", "rerank_feed", "warming"} & set(page["statistics"])
        assert "source" not in page["statistics"]["resilience"]

        response = application.handle(HttpRequest.get("/qr2/statistics", {"session": session_id}))
        assert response.ok
        panel = response.json()
        assert panel["result_cache"]["misses"] >= 0
        assert panel["rerank_feed"]["created"] >= 1
        assert panel["resilience"]["source"] is not None
        assert panel == json.loads(json.dumps(application.service.statistics(session_id)))
        for name, value in page["statistics"].items():
            if name != "resilience":
                assert panel[name] == value, name

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

    @pytest.mark.parametrize(
        "malformed",
        [
            {"filters": [1, 2]},
            {"filters": {"ranges": {"price": 5}}},
            {"filters": {"ranges": {"price": [5]}}},
            {"filters": {"ranges": {"price": ["a", "b"]}}},
            {"filters": {"memberships": {"cut": 5}}},
            {"page_size": "ten"},
            {"sliders": {"price": "x"}},
        ],
        ids=[
            "filters-list",
            "range-number",
            "range-single",
            "range-strings",
            "membership-number",
            "page-size-string",
            "slider-string",
        ],
    )
    def test_malformed_query_body_is_400_and_the_session_still_serves(
        self, application, malformed
    ):
        """A body of the wrong shape is the caller's error (400), not a
        crash of the service (500), and it leaves the session usable."""
        session_id = _post(application, "/qr2/sessions", {}).json()["session_id"]
        valid = {
            "session_id": session_id,
            "source": "bluenile",
            "filters": {"ranges": {"price": [1000, 5000]}},
            "sliders": {"price": 1.0},
            "page_size": 5,
        }
        response = _post(application, "/qr2/query", {**valid, **malformed})
        assert response.status == 400, response.body
        served = _post(application, "/qr2/query", valid)
        assert served.ok, served.body
        assert len(served.json()["rows"]) == 5

    @pytest.mark.parametrize(
        "ranking",
        [5, {"weights": {"price": "x", "carat": -0.5}}],
        ids=["ranking-number", "weight-string"],
    )
    def test_malformed_ranking_is_400(self, application, ranking):
        session_id = _post(application, "/qr2/sessions", {}).json()["session_id"]
        response = _post(
            application,
            "/qr2/query",
            {"session_id": session_id, "source": "bluenile", "ranking": ranking},
        )
        assert response.status == 400, response.body

    def test_unknown_route_404(self, application):
        assert application.handle(HttpRequest.get("/qr2/nope")).status == 404

    def test_nan_range_bound_is_400_and_poisons_no_later_session(self):
        """``json.loads`` accepts the ``NaN`` token.  A NaN bound used to be
        answered, stored as a covering cache entry, and then "contain" every
        later price range, emptying other sessions' pages."""

        def honest_page(app):
            session_id = _post(app, "/qr2/sessions", {}).json()["session_id"]
            response = _post(
                app,
                "/qr2/query",
                {
                    "session_id": session_id,
                    "source": "bluenile",
                    "filters": {"ranges": {"price": [1000, 5000]}},
                    "sliders": {"price": 1.0},
                    "page_size": 10,
                },
            )
            assert response.ok, response.body
            return response.json()["rows"]

        expected = honest_page(_fresh_application())
        assert len(expected) == 10
        app = _fresh_application()
        session_id = _post(app, "/qr2/sessions", {}).json()["session_id"]
        poisoned = app.handle(
            HttpRequest(
                method="POST",
                path="/qr2/query",
                body=(
                    f'{{"session_id": "{session_id}", "source": "bluenile", '
                    '"filters": {"ranges": {"price": [0, NaN]}}, '
                    '"sliders": {"price": 1.0}, "page_size": 10}'
                ),
            )
        )
        assert poisoned.status == 400
        assert honest_page(app) == expected


class TestSocketDeployment:
    def test_the_start_up_heap_is_frozen_only_while_serving(self, application):
        """The server takes the heap it starts on out of the cyclic
        collector and hands it back on shutdown."""
        handle = serve_qr2_over_socket(application)
        try:
            assert gc.get_freeze_count() > 0
        finally:
            handle.shutdown()
        assert gc.get_freeze_count() == 0

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


class TestPersistentConnections:
    @pytest.mark.parametrize(
        "head, status",
        [
            ("POST /qr2/sessions HTTP/1.1\r\nContent-Length: -1", 400),
            ("POST /qr2/sessions HTTP/1.1\r\nContent-Length: abc", 400),
            ("POST /qr2/sessions HTTP/1.1\r\nContent-Length: 999999999", 413),
            # Bodies the handler does not read at all: on a GET, and chunked.
            ("GET /qr2/sources HTTP/1.1\r\nContent-Length: 2", 200),
            ("POST /qr2/nowhere HTTP/1.1\r\nTransfer-Encoding: chunked", 404),
        ],
    )
    def test_unread_body_is_never_parsed_as_the_next_request(
        self, application, capsys, head, status
    ):
        """A reply that leaves its request's body unread says ``Connection:
        close`` and the server closes, so neither the stray ``{}`` nor the
        valid request behind it is interpreted — one reply, then EOF."""
        sessions = len(application.service._sessions)
        handle = serve_qr2_over_socket(application)
        try:
            with socket.create_connection(handle.address, timeout=1.0) as raw:
                raw.sendall(
                    f"{head}\r\nHost: qr2\r\n\r\n{{}}".encode("ascii")
                    + b"POST /qr2/sessions HTTP/1.1\r\nHost: qr2\r\nContent-Length: 2\r\n\r\n{}"
                )
                stream = b""
                while chunk := raw.recv(4096):  # to EOF; a timeout fails the test
                    stream += chunk
        finally:
            handle.shutdown()
        assert stream.count(b"HTTP/1.1 ") == 1
        reply_head, _, body = stream.partition(b"\r\n\r\n")
        assert int(reply_head.split(b"\r\n", 1)[0].split()[1]) == status
        assert b"connection: close" in reply_head.lower()
        json.loads(body)  # nothing after the one JSON body
        assert len(application.service._sessions) == sessions
        assert "Traceback" not in capsys.readouterr().err

    def test_shutdown_leaves_no_handler_thread_behind(self, application):
        """Each idle persistent connection parks a handler thread in
        ``readline()``; ``shutdown()`` must end them, not leave them to the
        idle timeout."""
        before = set(threading.enumerate())
        handle = serve_qr2_over_socket(application)
        connections = [
            http.client.HTTPConnection(*handle.address, timeout=1.0) for _ in range(2)
        ]
        try:
            for connection in connections:
                connection.request("GET", "/qr2/sources")
                assert connection.getresponse().read()
            assert handle.connections_accepted == 2
            assert len(set(threading.enumerate()) - before) == 3  # server + 2 handlers
            handle.shutdown()
            deadline = time.monotonic() + 1.0
            while set(threading.enumerate()) - before and time.monotonic() < deadline:
                time.sleep(0.005)
            assert set(threading.enumerate()) - before == set()
            for connection in connections:
                started = time.monotonic()
                with pytest.raises((http.client.HTTPException, OSError)):
                    connection.request("GET", "/qr2/sources")
                    connection.getresponse()
                assert time.monotonic() - started < 0.5
        finally:
            handle.shutdown()
            for connection in connections:
                connection.close()
