"""Tests for the concurrent serving tier (admission control, the running
bound, per-session serialization, drain), session expiry, and the
500-hardened HTTP layer."""

import http.client
import json
import sys
import threading
import time

import pytest

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.exceptions import ServiceOverloadedError
from repro.httpsim.messages import HttpRequest
from repro.service.app import QR2Service
from repro.service.concurrent import ConcurrentQR2Application, ConcurrentServingTier
from repro.service.httpapp import QR2HttpApplication, serve_qr2_over_socket
from repro.service.sources import build_default_registry


def make_registry(**kwargs):
    return build_default_registry(
        diamond_config=DiamondCatalogConfig(size=250, seed=31),
        housing_config=HousingCatalogConfig(size=250, seed=32),
        database_config=DatabaseConfig(system_k=10),
        rerank_config=kwargs.pop("rerank_config", RerankConfig()),
        **kwargs,
    )


@pytest.fixture(scope="module")
def registry():
    return make_registry()


def make_service(registry, **config_kwargs) -> QR2Service:
    config_kwargs.setdefault("default_page_size", 5)
    return QR2Service(registry=registry, config=ServiceConfig(**config_kwargs))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


def in_thread(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def joined(*threads):
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestTierScheduling:
    def test_a_job_runs_on_the_calling_thread(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=4)
        assert tier.submit(threading.get_ident, key="a") == threading.get_ident()
        snapshot = tier.snapshot()
        assert (snapshot["completed"], snapshot["in_flight"]) == (1, 0)

    def test_distinct_keys_run_in_parallel(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=4, queue_depth=16)
        barrier = threading.Barrier(3, timeout=5.0)
        results = []

        def job():
            barrier.wait()  # passes only if both jobs overlap (plus this thread)
            return "done"

        callers = [
            in_thread(lambda i=i: results.append(tier.submit(job, key=f"k{i}")))
            for i in range(2)
        ]
        barrier.wait()
        joined(*callers)
        assert results == ["done", "done"]

    def test_same_key_jobs_never_interleave_and_run_in_arrival_order(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=8, queue_depth=64)
        order = []
        lock = threading.Lock()
        active = {"count": 0, "max": 0}
        release = threading.Event()

        def job(index, gate=None):
            def run():
                with lock:
                    active["count"] += 1
                    active["max"] = max(active["max"], active["count"])
                if gate is not None:
                    assert gate.wait(timeout=5.0)
                with lock:
                    order.append(index)
                    active["count"] -= 1
                return index

            return run

        callers = [in_thread(lambda: tier.submit(job(0, release), key="session:a"))]
        wait_until(lambda: active["count"] == 1)
        for index in range(1, 12):
            # Each caller is admitted before the next starts: arrival order.
            callers.append(in_thread(lambda i=index: tier.submit(job(i), key="session:a")))
            wait_until(lambda n=index + 1: tier.snapshot()["in_flight"] == n)
        assert order == []
        release.set()
        joined(*callers)
        assert order == list(range(12))  # FIFO per key
        assert active["max"] == 1  # never two in flight for one key
        assert tier.snapshot()["completed"] == 12

    def test_job_error_reaches_its_caller_and_the_tier_keeps_serving(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)

        def boom():
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="kaboom"):
            tier.submit(boom, key="x")
        assert tier.snapshot()["in_flight"] == 0  # a failed job is finished too
        assert tier.submit(lambda: 41 + 1, key="x") == 42
        assert tier.snapshot()["completed"] == 2


class TestAdmissionControl:
    def test_full_queue_rejects_without_executing(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=1, queue_depth=2)
        release = threading.Event()
        results, ran = [], []

        def blocker():
            release.wait(timeout=10.0)
            return "ok"

        callers = [in_thread(lambda: results.append(tier.submit(blocker, key="a")))]
        wait_until(lambda: tier.snapshot()["in_flight"] == 1)
        # Waits for the one slot; the queue is now full.
        callers.append(in_thread(lambda: results.append(tier.submit(lambda: "queued", key="b"))))
        wait_until(lambda: tier.snapshot()["in_flight"] == 2)
        with pytest.raises(ServiceOverloadedError, match="full"):
            tier.submit(lambda: ran.append("c"), key="c")
        assert ran == [] and tier.snapshot()["rejected"] == 1
        release.set()
        joined(*callers)
        assert results == ["ok", "queued"]

    def test_application_maps_overload_to_429(self, registry):
        service = make_service(registry, serving_workers=1, admission_queue_depth=1)
        app = ConcurrentQR2Application(service)
        release = threading.Event()
        holder = in_thread(lambda: app.tier.submit(lambda: release.wait(timeout=10.0), key="hold"))
        try:
            wait_until(lambda: app.tier.snapshot()["in_flight"] == 1)
            response = app.handle(HttpRequest.get("/qr2/sources"))
            assert response.status == 429
            payload = response.json()
            assert payload["retry"] is True
            assert "full" in payload["error"]
        finally:
            release.set()
            joined(holder)
            app.close(close_service=False)


class TestDrainAndShutdown:
    def test_drain_waits_for_inflight_and_rejects_new_work(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        release = threading.Event()
        caller = in_thread(lambda: tier.submit(lambda: release.wait(timeout=5.0), key="a"))
        wait_until(lambda: tier.snapshot()["in_flight"] == 1)
        assert tier.drain(timeout=0.05) is False
        release.set()
        assert tier.drain(timeout=5.0) is True
        joined(caller)
        ran = []
        with pytest.raises(ServiceOverloadedError, match="shutting down"):
            tier.submit(lambda: ran.append("late"))
        assert ran == []
        snapshot = tier.snapshot()
        assert (snapshot["completed"], snapshot["rejected"]) == (1, 1)

    def test_drain_is_idempotent(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        assert tier.drain(timeout=5.0) is True
        assert tier.drain(timeout=5.0) is True
        assert tier.snapshot()["draining"] is True

    def test_application_close_is_idempotent(self, registry):
        app = ConcurrentQR2Application(make_service(registry))
        app.close(timeout=5.0, close_service=False)
        app.close(timeout=5.0, close_service=False)
        assert app.tier.snapshot()["draining"] is True

    def test_application_close_drains_and_closes_service(self):
        registry = make_registry()
        service = make_service(registry)
        app = ConcurrentQR2Application(service)
        created = app.handle(HttpRequest.post_json("/qr2/sessions", {}))
        session_id = created.json()["session_id"]
        response = app.handle(
            HttpRequest.post_json(
                "/qr2/query",
                {"session_id": session_id, "source": "bluenile", "sliders": {"price": 1.0}},
            )
        )
        assert response.ok
        stream = service._requests[session_id].stream
        app.close()
        assert stream.closed
        assert app.handle(HttpRequest.get("/qr2/sources")).status == 429

    def test_constructing_the_application_starts_no_thread(self, registry):
        before = threading.active_count()
        app = ConcurrentQR2Application(QR2Service(registry=registry))
        try:
            assert threading.active_count() == before
        finally:
            app.close(close_service=False)


class TestBounds:
    def test_running_jobs_never_exceed_workers(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        lock = threading.Lock()
        running = peak = 0
        release = threading.Event()

        def job():
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            assert release.wait(timeout=5.0)
            with lock:
                running -= 1

        callers = [in_thread(lambda i=i: tier.submit(job, key=f"k{i}")) for i in range(4)]
        # Admission and the slot check are one critical section, and a
        # waiting job wakes only when one finishes: once all four are
        # admitted and two run, nothing else can start before the release.
        wait_until(lambda: tier.snapshot()["in_flight"] == 4 and running == 2)
        release.set()
        joined(*callers)
        snapshot = tier.snapshot()
        assert peak == 2
        assert (snapshot["completed"], snapshot["max_in_flight"]) == (4, 4)

    def test_a_job_waiting_behind_its_key_holds_no_slot(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        release = threading.Event()
        order = []
        first = in_thread(lambda: tier.submit(lambda: release.wait(timeout=5.0), key="s"))
        wait_until(lambda: tier.snapshot()["in_flight"] == 1)
        second = in_thread(lambda: tier.submit(lambda: order.append("s2"), key="s"))
        wait_until(lambda: tier.snapshot()["in_flight"] == 2)
        # One job runs and one waits on its key: the second slot is free.
        other = threading.Event()
        joined(in_thread(lambda: tier.submit(other.set, key="t")))
        assert other.is_set() and order == []
        release.set()
        joined(first, second)
        assert order == ["s2"]

    def test_bounds_hold_under_contention(self, registry):
        """More callers than slots and keys, a shortened switch interval:
        a lost update to the shared running count or a key's queue would
        show as two jobs of one key, three jobs at once, or an admission
        count that does not return to zero."""
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=6)
        lock = threading.Lock()
        active = []
        violations = []
        rejected = [0]

        def job(key):
            def run():
                with lock:
                    if key in active or len(active) >= 2:
                        violations.append((key, list(active)))
                    active.append(key)
                time.sleep(0)  # yield while counted as running
                with lock:
                    active.remove(key)

            return run

        def caller(lane):
            for index in range(40):
                key = f"k{(lane + index) % 3}"
                try:
                    tier.submit(job(key), key=key)
                except ServiceOverloadedError:
                    with lock:
                        rejected[0] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            joined(*[in_thread(lambda lane=lane: caller(lane)) for lane in range(8)])
        finally:
            sys.setswitchinterval(interval)
        snapshot = tier.snapshot()
        assert violations == []
        assert snapshot["in_flight"] == 0
        assert snapshot["max_in_flight"] <= 6
        assert snapshot["rejected"] == rejected[0]
        assert snapshot["completed"] + snapshot["rejected"] == 320


class TestCallerRuns:
    """Every job runs on the thread that submitted it; the tier's bounds
    decide only when it starts."""

    def test_a_job_queued_behind_its_key_runs_on_its_own_caller(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        release = threading.Event()
        ran_on = {}

        def job(name, gate=None):
            def run():
                if gate is not None:
                    assert gate.wait(timeout=5.0)
                ran_on[name] = threading.get_ident()

            return run

        first = in_thread(lambda: tier.submit(job("first", release), key="s"))
        wait_until(lambda: tier.snapshot()["in_flight"] == 1)
        second = in_thread(lambda: tier.submit(job("second"), key="s"))
        wait_until(lambda: tier.snapshot()["in_flight"] == 2)
        release.set()
        joined(first, second)
        assert ran_on == {"first": first.ident, "second": second.ident}

    def test_drain_waits_for_an_inline_job(self, registry):
        """Drain waits for the running job and for the one admitted
        behind it on the same key."""
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        release = threading.Event()
        order = []
        first = in_thread(lambda: tier.submit(lambda: release.wait(timeout=5.0), key="a"))
        wait_until(lambda: tier.snapshot()["in_flight"] == 1)
        second = in_thread(lambda: tier.submit(lambda: order.append("second"), key="a"))
        wait_until(lambda: tier.snapshot()["in_flight"] == 2)
        assert tier.drain(timeout=0.05) is False
        assert order == []
        release.set()
        assert tier.drain(timeout=5.0) is True
        joined(first, second)
        assert order == ["second"]
        assert tier.snapshot()["completed"] == 2

    @pytest.mark.parametrize("workers", [1, 2])  # 1: no slot free; 2: a slot free
    def test_full_queue_refuses_execute_before_running(self, registry, workers):
        """The admission depth refuses work whether or not a slot is free."""
        tier = ConcurrentServingTier(make_service(registry), workers=workers, queue_depth=1)
        release = threading.Event()
        ran = []
        holder = in_thread(lambda: tier.submit(lambda: release.wait(timeout=5.0), key="a"))
        try:
            wait_until(lambda: tier.snapshot()["in_flight"] == 1)
            with pytest.raises(ServiceOverloadedError, match="full"):
                tier.submit(lambda: ran.append("b"), key="b")
            assert ran == [] and tier.snapshot()["rejected"] == 1
        finally:
            release.set()
            joined(holder)
        assert tier.submit(lambda: "after", key="b") == "after"


class TestSessionExpiry:
    """A default-config service bounds its session table: ``create_session``
    expires idle sessions, at most once per TTL, with no thread."""

    @pytest.fixture
    def clock(self, monkeypatch):
        now = [time.time()]
        monkeypatch.setattr(time, "time", lambda: now[0])
        return now

    def test_create_session_drops_sessions_idle_past_the_ttl(self, registry, clock):
        service = QR2Service(registry=registry)
        idle = service.create_session()
        service.submit_query(idle, "bluenile", sliders={"price": 1.0})
        stream = service._requests[idle].stream
        clock[0] += service.config.session_ttl_seconds + 1.0
        fresh = service.create_session()
        with service._lock:
            assert set(service._sessions) == {fresh}
        assert stream.closed

    def test_a_busy_session_survives_the_sweep(self, registry, clock):
        service = QR2Service(registry=registry)
        ttl = service.config.session_ttl_seconds
        busy = service.create_session()
        lock = service._session_lock(busy)
        holding, release = threading.Event(), threading.Event()

        def hold():  # a request in flight on another thread
            with lock:
                holding.set()
                release.wait(timeout=10.0)

        holder = in_thread(hold)
        assert holding.wait(timeout=5.0)
        clock[0] += ttl + 1.0
        service.create_session()
        with service._lock:
            assert busy in service._sessions
        release.set()
        joined(holder)
        clock[0] += ttl + 1.0
        service.create_session()
        with service._lock:
            assert busy not in service._sessions

    def test_create_session_sweeps_at_most_once_per_ttl(self, registry, clock, monkeypatch):
        service = QR2Service(registry=registry)
        sweeps = []
        expire = service.expire_idle_sessions
        monkeypatch.setattr(service, "expire_idle_sessions", lambda: sweeps.append(expire()))
        for _ in range(1000):
            service.create_session()
        assert len(sweeps) == 1
        clock[0] += service.config.session_ttl_seconds
        service.create_session()
        assert len(sweeps) == 2

    def test_busy_session_is_not_reaped_mid_request(self, registry):
        service = make_service(registry, session_ttl_seconds=0.0)
        session_id = service.create_session()
        lock = service._session_lock(session_id)
        holding = threading.Event()
        release = threading.Event()

        def hold():  # simulates a request in flight on another thread
            with lock:
                holding.set()
                release.wait(timeout=10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert holding.wait(timeout=5.0)
            assert service.expire_idle_sessions() == 0
        finally:
            release.set()
            holder.join(timeout=5.0)
        assert service.expire_idle_sessions() == 1

    def test_close_session_waits_for_the_request_in_flight(self, registry):
        service = make_service(registry)
        session_id = service.create_session()
        service.submit_query(session_id, "bluenile", sliders={"price": 1.0})
        stream = service._requests[session_id].stream
        lock = service._session_lock(session_id)
        holding, release = threading.Event(), threading.Event()

        def hold():  # a page being served on another thread
            with lock:
                holding.set()
                release.wait(timeout=10.0)

        holder = in_thread(hold)
        assert holding.wait(timeout=5.0)
        closed = []
        closer = in_thread(lambda: closed.append(service.close_session(session_id)))
        closer.join(timeout=0.05)
        assert closer.is_alive() and not stream.closed
        release.set()
        joined(holder, closer)
        assert closed == [True] and stream.closed


class TestConcurrentServiceSafety:
    def test_racing_submit_and_get_next_across_threads(self):
        registry = make_registry()
        service = make_service(registry)
        errors = []

        def user(index):
            try:
                session_id = service.create_session()
                first = service.submit_query(
                    session_id,
                    "bluenile" if index % 2 == 0 else "zillow",
                    sliders={"price": 1.0, ("carat" if index % 2 == 0 else "squarefeet"): -0.5},
                    page_size=4,
                )
                second = service.get_next_page(session_id)
                keys = [row["id"] for row in first["rows"] + second["rows"]]
                assert len(keys) == len(set(keys)), "duplicate emission"
                assert second["page"] == 2
            except Exception as exc:  # noqa: BLE001 - assert below
                errors.append(exc)

        threads = [threading.Thread(target=user, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors

    def test_concurrent_sessions_are_served_the_pages_of_a_sequential_pass(self):
        """Sessions on their own threads, some asking the same query, get
        byte-identical pages to the same sessions run one after another
        against a fresh service."""
        scripts = [
            ("bluenile", {"price": 1.0, "carat": -0.5}),
            ("bluenile", {"price": 1.0, "carat": -0.5}),
            ("bluenile", {"carat": 1.0}),
            ("zillow", {"price": -1.0, "squarefeet": 0.5}),
            ("zillow", {"price": -1.0, "squarefeet": 0.5}),
            ("zillow", {"bedrooms": 1.0}),
        ]

        def run_session(app, source, sliders):
            def post(path, payload):
                response = app.handle(HttpRequest.post_json(path, payload))
                assert response.ok, response.json()
                return response.json()

            session_id = post("/qr2/sessions", {})["session_id"]
            pages = [
                post(
                    "/qr2/query",
                    {"session_id": session_id, "source": source,
                     "sliders": sliders, "page_size": 4},
                )
            ]
            pages += [post("/qr2/next", {"session_id": session_id}) for _ in range(3)]
            return json.dumps(
                [{key: page[key] for key in ("page", "rows", "exhausted")} for page in pages],
                sort_keys=True,
            )

        sequential_app = QR2HttpApplication(make_service(make_registry()))
        try:
            expected = [run_session(sequential_app, *script) for script in scripts]
        finally:
            sequential_app.service.close()

        app = ConcurrentQR2Application(make_service(make_registry(), serving_workers=8))
        served = [None] * len(scripts)
        errors = []
        start = threading.Barrier(len(scripts))

        def user(index):
            try:
                start.wait(timeout=10.0)
                served[index] = run_session(app, *scripts[index])
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=user, args=(i,)) for i in range(len(scripts))]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            app.close()
        assert not errors
        assert served == expected

    def test_same_session_requests_serialize_through_the_application(self):
        registry = make_registry()
        service = make_service(registry)
        app = ConcurrentQR2Application(service)
        try:
            session_id = app.handle(
                HttpRequest.post_json("/qr2/sessions", {})
            ).json()["session_id"]
            submit = app.handle(
                HttpRequest.post_json(
                    "/qr2/query",
                    {
                        "session_id": session_id,
                        "source": "bluenile",
                        "sliders": {"price": 1.0},
                        "page_size": 3,
                    },
                )
            )
            assert submit.ok
            # Fire 6 concurrent get-next requests for one session: serialized
            # execution must produce pages 2..7 with no duplicate rows.
            responses = [None] * 6
            def next_page(i):
                responses[i] = app.handle(
                    HttpRequest.post_json("/qr2/next", {"session_id": session_id})
                )
            threads = [threading.Thread(target=next_page, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            payloads = [r.json() for r in responses]
            assert sorted(p["page"] for p in payloads) == [2, 3, 4, 5, 6, 7]
            all_ids = [row["id"] for p in payloads for row in p["rows"]]
            assert len(all_ids) == len(set(all_ids))
        finally:
            app.close(close_service=False)

    def test_concurrent_application_over_a_real_socket(self):
        registry = make_registry()
        app = ConcurrentQR2Application(make_service(registry))
        handle = serve_qr2_over_socket(app)
        try:
            import urllib.request

            def fetch(path, payload=None):
                data = json.dumps(payload).encode() if payload is not None else None
                request = urllib.request.Request(
                    handle.base_url + path,
                    data=data,
                    method="POST" if data is not None else "GET",
                )
                with urllib.request.urlopen(request, timeout=30) as raw:
                    return json.loads(raw.read())

            session_id = fetch("/qr2/sessions", {})["session_id"]
            payload = fetch(
                "/qr2/query",
                {
                    "session_id": session_id,
                    "source": "zillow",
                    "sliders": {"price": 1.0},
                    "page_size": 3,
                },
            )
            assert len(payload["rows"]) == 3
        finally:
            handle.shutdown()
            app.close(close_service=False)

    def test_a_session_over_one_connection_costs_one_accept_and_one_thread(self):
        """The machine-independent guard on the warm page's transport and
        hand-off: five requests on one ``http.client`` connection are one
        accepted connection, no thread beyond the first request's, and each
        runs on that connection's own handler thread."""
        app = ConcurrentQR2Application(make_service(make_registry()))
        ran_on = []
        inner_handle = app._inner.handle

        def recording(request):
            ran_on.append(threading.current_thread())
            return inner_handle(request)

        app._inner.handle = recording  # type: ignore[method-assign]
        handle = serve_qr2_over_socket(app)
        connection = http.client.HTTPConnection(*handle.address, timeout=5.0)
        try:
            def post(path, payload):
                connection.request("POST", path, body=json.dumps(payload))
                response = connection.getresponse()
                assert response.status == 200
                return json.loads(response.read())

            session_id = post("/qr2/sessions", {})["session_id"]
            threads_after_first = threading.active_count()
            pages = [post(
                "/qr2/query",
                {"session_id": session_id, "source": "zillow", "sliders": {"price": 1.0}, "page_size": 3},
            )]  # fmt: skip
            pages += [post("/qr2/next", {"session_id": session_id}) for _ in range(3)]
            assert [page["page"] for page in pages] == [1, 2, 3, 4]
            assert handle.connections_accepted == 1
            assert threading.active_count() == threads_after_first
            assert len(ran_on) == 5 and len(set(ran_on)) == 1
            assert app.tier.snapshot()["completed"] == 5
        finally:
            connection.close()
            handle.shutdown()
            app.close(close_service=False)


class TestStructured500:
    def test_unexpected_exception_becomes_structured_500(self, registry):
        app = QR2HttpApplication(make_service(registry))

        def explode():
            raise RuntimeError("wired to fail")

        app._service.list_sources = explode  # type: ignore[assignment]
        response = app.handle(HttpRequest.get("/qr2/sources"))
        assert response.status == 500
        payload = response.json()
        assert payload["error"] == "internal server error"
        assert payload["exception"] == "RuntimeError"
        assert payload["detail"] == "wired to fail"

    def test_concurrent_application_survives_inner_crash(self, registry):
        service = make_service(registry)
        app = ConcurrentQR2Application(service)
        try:
            def explode():
                raise ValueError("boom")

            service.list_sources = explode  # type: ignore[assignment]
            response = app.handle(HttpRequest.get("/qr2/sources"))
            assert response.status == 500
            assert response.json()["exception"] == "ValueError"
            # Tier still healthy afterwards.
            sessions = app.handle(HttpRequest.post_json("/qr2/sessions", {}))
            assert sessions.ok
        finally:
            app.close(close_service=False)
