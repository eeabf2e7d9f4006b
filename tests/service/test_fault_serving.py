"""Tests for fault serving at the HTTP boundary: structured 503s, the
overload 429's back-off hint, and client-side retries."""

import threading

import pytest

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.core.reranker import QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.exceptions import (
    CircuitOpenError,
    QueryError,
    RemoteInterfaceError,
)
from repro.httpsim.client import HttpClient, Transport
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.httpsim.server import SearchHttpServer
from repro.service.app import QR2Service
from repro.service.concurrent import ConcurrentQR2Application
from repro.service.httpapp import QR2HttpApplication
from repro.service.sources import DataSource, DataSourceRegistry, build_default_registry
from repro.webdb.remote import RemoteTopKInterface


@pytest.fixture(scope="module")
def registry():
    return build_default_registry(
        diamond_config=DiamondCatalogConfig(size=250, seed=41),
        housing_config=HousingCatalogConfig(size=250, seed=42),
        database_config=DatabaseConfig(system_k=10),
        rerank_config=RerankConfig(),
    )


def make_service(registry, **config_kwargs) -> QR2Service:
    config_kwargs.setdefault("default_page_size", 5)
    return QR2Service(registry=registry, config=ServiceConfig(**config_kwargs))


class TestAvailability503s:
    def test_circuit_open_maps_to_503_with_retry_after(self, registry, monkeypatch):
        application = QR2HttpApplication(make_service(registry))

        def tripped(name):
            raise CircuitOpenError(
                "breaker open", source="bluenile#1", retry_after_seconds=6.2
            )

        monkeypatch.setattr(application.service, "describe_source", tripped)
        response = application.handle(HttpRequest.get("/qr2/sources/bluenile"))
        assert response.status == 503
        assert response.headers["retry-after"] == "7"  # ceil(6.2)
        payload = response.json()
        assert payload["unavailable"] is True
        assert payload["retry"] is True
        assert payload["exception"] == "CircuitOpenError"
        assert payload["source"] == "bluenile#1"

    def test_plain_query_errors_stay_400(self, registry, monkeypatch):
        application = QR2HttpApplication(make_service(registry))
        monkeypatch.setattr(
            application.service,
            "describe_source",
            lambda name: (_ for _ in ()).throw(QueryError("bad query")),
        )
        assert application.handle(HttpRequest.get("/qr2/sources/x")).status == 400


class FailingSearchTransport(Transport):
    """A site whose search form answers, but whose search endpoint keeps
    answering ``response``."""

    def __init__(self, database, response):
        self._site = SearchHttpServer(database)
        self._response = response

    def send(self, request):
        if request.path == "/api/search":
            return self._response
        return self._site.handle(request)


class TestRemoteOutage503s:
    """A remote source that stays down after the client's retries is
    unavailable, not a bad request."""

    @staticmethod
    def query_through(database, response):
        remote = RemoteTopKInterface(
            HttpClient(FailingSearchTransport(database, response), sleeper=lambda _: None)
        )
        registry = DataSourceRegistry()
        registry.register(
            DataSource(
                name="bluenile",
                title="Blue Nile via HTTP",
                interface=remote,
                reranker=QueryReranker(remote, config=RerankConfig()),
            )
        )
        application = QR2HttpApplication(make_service(registry))
        session = application.handle(HttpRequest.post_json("/qr2/sessions", {})).json()
        return application.handle(
            HttpRequest.post_json(
                "/qr2/query",
                {
                    "session_id": session["session_id"],
                    "source": "bluenile",
                    "sliders": {"price": 1.0, "carat": -0.5},
                },
            )
        )

    def test_server_errors_answer_503(self, bluenile_db):
        response = self.query_through(
            bluenile_db, HttpResponse(status=503, headers={}, body="down")
        )
        assert response.status == 503
        payload = response.json()
        assert payload["unavailable"] is True
        assert payload["exception"] == "RemoteInterfaceError"

    def test_rate_limit_answers_503_with_its_retry_after(self, bluenile_db):
        response = self.query_through(
            bluenile_db, HttpResponse(status=429, headers={"Retry-After": "7"}, body="")
        )
        assert response.status == 503
        assert response.headers["retry-after"] == "7"
        assert response.json()["unavailable"] is True


class TestConcurrentTierOverload:
    def test_overload_429_carries_backoff_hint(self, registry):
        service = make_service(registry, serving_workers=1, admission_queue_depth=1)
        app = ConcurrentQR2Application(service)
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=10.0)
            return "ok"

        holder = threading.Thread(target=lambda: app.tier.submit(blocker, key="hold"))
        holder.start()
        try:
            assert started.wait(timeout=5.0)
            response = app.handle(HttpRequest.get("/qr2/sources"))
            assert response.status == 429
            assert response.headers["retry-after"] == "1"
        finally:
            release.set()
            holder.join(timeout=5.0)
            app.close(close_service=False)


class ScriptedTransport(Transport):
    """Transport that plays back a fixed list of responses/errors."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.sent = 0

    def send(self, request):
        self.sent += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok(body="{}"):
    return HttpResponse(status=200, headers={}, body=body)


class TestHttpClientRetries:
    def test_retry_after_header_overrides_the_jittered_delay(self):
        transport = ScriptedTransport(
            [HttpResponse(status=429, headers={"Retry-After": "3"}, body=""), ok()]
        )
        sleeps = []
        client = HttpClient(
            transport, max_retries=2, backoff_seconds=0.05, sleeper=sleeps.append
        )
        response = client.get("/search")
        assert response.status == 200
        assert sleeps == [3.0]
        assert client.rate_limited == 1
        assert client.retries == 1
        assert client.backoff_waited_seconds == pytest.approx(3.0)

    def test_server_errors_retry_with_backoff(self):
        transport = ScriptedTransport(
            [HttpResponse(status=503, headers={}, body=""), ok()]
        )
        sleeps = []
        client = HttpClient(
            transport,
            max_retries=2,
            backoff_seconds=0.05,
            backoff_cap_seconds=1.0,
            sleeper=sleeps.append,
        )
        assert client.get("/search").status == 200
        assert len(sleeps) == 1
        assert 0.05 <= sleeps[0] <= 1.0

    def test_equal_seeds_replay_identical_delay_schedules(self):
        def drive(seed):
            sleeps = []
            client = HttpClient(
                ScriptedTransport(
                    [RemoteInterfaceError("down")] * 3
                    + [RemoteInterfaceError("down")] * 3
                ),
                max_retries=2,
                backoff_seconds=0.05,
                backoff_seed=seed,
                sleeper=sleeps.append,
            )
            for _ in range(2):
                with pytest.raises(RemoteInterfaceError):
                    client.get("/search")
            return sleeps

        assert drive(17) == drive(17)
        assert drive(17) != drive(18)

    def test_exhausted_rate_limit_returns_the_last_429(self):
        responses = [
            HttpResponse(status=429, headers={"retry-after": "0"}, body="slow down")
        ] * 3
        client = HttpClient(
            ScriptedTransport(responses), max_retries=2, sleeper=lambda _: None
        )
        response = client.get("/search")
        assert response.status == 429
        assert response.body == "slow down"
        assert client.rate_limited == 3

    def test_exhausted_transport_errors_raise(self):
        client = HttpClient(
            ScriptedTransport([RemoteInterfaceError("down")] * 2),
            max_retries=1,
            sleeper=lambda _: None,
        )
        with pytest.raises(RemoteInterfaceError):
            client.get("/search")
