"""Tests for the concurrent serving tier (worker pool, admission control,
per-session serialization, drain, reaper) and the 500-hardened HTTP layer."""

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


class TestTierScheduling:
    def test_distinct_keys_run_in_parallel(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=4, queue_depth=16)
        barrier = threading.Barrier(3, timeout=5.0)

        def job():
            barrier.wait()  # passes only if >= 2 jobs overlap (plus this thread)
            return "done"

        try:
            futures = [tier.submit(job, key=f"k{i}") for i in range(2)]
            barrier.wait()
            assert [f.result(timeout=5.0) for f in futures] == ["done", "done"]
        finally:
            tier.close()

    def test_same_key_jobs_never_interleave_and_keep_order(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=8, queue_depth=64)
        events = []
        lock = threading.Lock()
        active = {"count": 0, "max": 0}

        def job(index):
            with lock:
                active["count"] += 1
                active["max"] = max(active["max"], active["count"])
            time.sleep(0.005)
            with lock:
                events.append(index)
                active["count"] -= 1

        try:
            futures = [tier.submit(lambda i=i: job(i), key="session:a") for i in range(12)]
            for future in futures:
                future.result(timeout=10.0)
        finally:
            tier.close()
        assert events == list(range(12))  # FIFO per key
        assert active["max"] == 1  # never two in flight for one key

    def test_job_error_propagates_to_future_not_worker(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)

        def boom():
            raise RuntimeError("kaboom")

        try:
            future = tier.submit(boom, key="x")
            with pytest.raises(RuntimeError):
                future.result(timeout=5.0)
            # The worker survived and keeps serving.
            assert tier.execute(lambda: 41 + 1, key="x") == 42
        finally:
            tier.close()


class TestAdmissionControl:
    def test_full_queue_rejects_without_executing(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=1, queue_depth=2)
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=10.0)
            return "ok"

        try:
            first = tier.submit(blocker, key="a")
            assert started.wait(timeout=5.0)
            second = tier.submit(lambda: "queued", key="b")  # fills the queue
            with pytest.raises(ServiceOverloadedError):
                tier.submit(lambda: "rejected", key="c")
            assert tier.snapshot()["rejected"] == 1
            release.set()
            assert first.result(timeout=5.0) == "ok"
            assert second.result(timeout=5.0) == "queued"
        finally:
            release.set()
            tier.close()

    def test_application_maps_overload_to_429(self, registry):
        service = make_service(registry, serving_workers=1, admission_queue_depth=1)
        app = ConcurrentQR2Application(service)
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=10.0)
            return "ok"

        try:
            app.tier.submit(blocker, key="hold")
            assert started.wait(timeout=5.0)
            response = app.handle(HttpRequest.get("/qr2/sources"))
            assert response.status == 429
            payload = response.json()
            assert payload["retry"] is True
            assert "full" in payload["error"]
        finally:
            release.set()
            app.close(close_service=False)


class TestDrainAndShutdown:
    def test_drain_waits_for_inflight_and_rejects_new_work(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        results = []

        def slow(index):
            time.sleep(0.05)
            results.append(index)
            return index

        futures = [tier.submit(lambda i=i: slow(i), key=f"k{i}") for i in range(4)]
        assert tier.drain(timeout=10.0)
        assert sorted(results) == [0, 1, 2, 3]
        assert all(future.done() for future in futures)
        with pytest.raises(ServiceOverloadedError):
            tier.submit(lambda: "late")
        assert tier.close(timeout=5.0)

    def test_close_is_idempotent(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        assert tier.close(timeout=5.0)
        assert tier.close(timeout=5.0)

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


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


def in_thread(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


class TestCallerRuns:
    """``execute`` runs the job on the calling thread when its key is idle
    and a slot is free — under the same bounds as the pool."""

    def test_idle_key_and_free_slot_run_on_the_calling_thread(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=4)
        try:
            assert tier.execute(threading.get_ident, key="a") == threading.get_ident()
            snapshot = tier.snapshot()
            assert (snapshot["completed"], snapshot["ran_inline"]) == (1, 1)
            assert list(snapshot)[4:6] == ["completed", "ran_inline"]
            with pytest.raises(ZeroDivisionError):
                tier.execute(lambda: 1 / 0, key="a")
            assert tier.snapshot()["in_flight"] == 0  # a failed inline job is finished too
        finally:
            tier.close()

    def test_mixed_inline_and_queued_jobs_of_one_key_keep_submission_order(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=4, queue_depth=16)
        order, threads_used = [], {}
        release = threading.Event()

        def job(index, gate=None):
            def run():
                if gate is not None:
                    assert gate.wait(timeout=5.0)
                order.append(index)
                threads_used[index] = threading.current_thread().name
                return index

            return run

        try:
            callers = [in_thread(lambda: tier.execute(job(0, release), key="s"))]  # inline
            wait_until(lambda: tier.snapshot()["in_flight"] == 1)
            queued = [tier.submit(job(1), key="s")]
            callers.append(in_thread(lambda: tier.execute(job(2), key="s")))  # key busy: queued
            wait_until(lambda: tier.snapshot()["in_flight"] == 3)
            queued.append(tier.submit(job(3), key="s"))
            assert order == []
            release.set()
            assert [future.result(timeout=5.0) for future in queued] == [1, 3]
            for caller in callers:
                caller.join(timeout=5.0)
                assert not caller.is_alive()
            assert tier.execute(job(4), key="s") == 4  # idle again: inline
            assert order == [0, 1, 2, 3, 4]
            assert [threads_used[i].startswith("qr2-worker") for i in range(5)] == [
                False, True, True, True, False,
            ]  # fmt: skip
            snapshot = tier.snapshot()
            assert (snapshot["completed"], snapshot["ran_inline"]) == (5, 2)
        finally:
            release.set()
            tier.close()

    def test_inline_and_pooled_jobs_share_the_running_bound(self, registry):
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

        try:
            callers = [in_thread(lambda i=i: tier.execute(job, key=f"k{i}")) for i in range(4)]
            wait_until(lambda: tier.snapshot()["in_flight"] == 4)
            time.sleep(0.05)  # time for a third job to start, were the bound not shared
            assert running == 2
            release.set()
            for caller in callers:
                caller.join(timeout=5.0)
                assert not caller.is_alive()
            snapshot = tier.snapshot()
            assert peak == 2
            assert (snapshot["completed"], snapshot["ran_inline"]) == (4, 2)
            assert snapshot["max_in_flight"] == 4
        finally:
            release.set()
            tier.close()

    def test_drain_waits_for_an_inline_job(self, registry):
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=8)
        release = threading.Event()
        try:
            caller = in_thread(lambda: tier.execute(lambda: release.wait(timeout=5.0), key="a"))
            wait_until(lambda: tier.snapshot()["in_flight"] == 1)
            assert tier.drain(timeout=0.05) is False
            release.set()
            assert tier.drain(timeout=5.0) is True
            caller.join(timeout=5.0)
            assert not caller.is_alive()
            assert tier.snapshot()["ran_inline"] == 1
        finally:
            release.set()
            tier.close()

    @pytest.mark.parametrize("workers", [1, 2])  # 1: refused on the queued path; 2: inline
    def test_full_queue_refuses_execute_before_running(self, registry, workers):
        tier = ConcurrentServingTier(make_service(registry), workers=workers, queue_depth=1)
        release = threading.Event()
        ran = []
        try:
            caller = in_thread(lambda: tier.execute(lambda: release.wait(timeout=5.0), key="a"))
            wait_until(lambda: tier.snapshot()["in_flight"] == 1)
            with pytest.raises(ServiceOverloadedError):
                tier.execute(lambda: ran.append("b"), key="b")
            assert ran == [] and tier.snapshot()["rejected"] == 1
            release.set()
            caller.join(timeout=5.0)
            assert not caller.is_alive()
        finally:
            release.set()
            tier.close()

    def test_bounds_hold_under_contention(self, registry):
        """More callers than slots and keys, a shortened switch interval:
        a lost update to the shared running count or a key's busy mark
        would show as two jobs of one key, or three jobs, at once."""
        tier = ConcurrentServingTier(make_service(registry), workers=2, queue_depth=64)
        lock = threading.Lock()
        active = []
        violations = []

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
                if index % 4 == 3:
                    tier.submit(job(key), key=key).result(timeout=10.0)
                else:
                    tier.execute(job(key), key=key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [in_thread(lambda lane=lane: caller(lane)) for lane in range(8)]
            for thread in callers:
                thread.join(timeout=20.0)
                assert not thread.is_alive()
            snapshot = tier.snapshot()
            assert violations == []
            assert (snapshot["completed"], snapshot["in_flight"], snapshot["rejected"]) == (320, 0, 0)
            assert 0 < snapshot["ran_inline"] < 320
        finally:
            sys.setswitchinterval(interval)
            tier.close()


class TestSessionReaper:
    def test_reaper_expires_idle_sessions_without_manual_calls(self, registry):
        service = make_service(registry, session_ttl_seconds=0.0)
        tier = ConcurrentServingTier(
            service, workers=1, queue_depth=4, reaper_interval_seconds=0.02
        )
        try:
            service.create_session()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if tier.snapshot()["reaped_sessions"] >= 1:
                    break
                time.sleep(0.01)
            assert tier.snapshot()["reaped_sessions"] >= 1
            with service._lock:
                assert not service._sessions
        finally:
            tier.close()

    def test_reaper_stops_with_the_tier(self, registry):
        service = make_service(registry, session_ttl_seconds=0.0)
        tier = ConcurrentServingTier(
            service, workers=1, queue_depth=4, reaper_interval_seconds=0.01
        )
        tier.close()
        service.create_session()
        time.sleep(0.05)
        with service._lock:
            assert len(service._sessions) == 1  # nothing reaps after close

    def test_busy_session_is_not_reaped_mid_request(self, registry):
        service = make_service(registry, session_ttl_seconds=0.0)
        session_id = service.create_session()
        lock = service._session_lock(session_id)
        holding = threading.Event()
        release = threading.Event()

        def hold():  # simulates a request in flight on a worker thread
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
        runs on that connection's own handler thread, not on a pool worker."""
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
            assert not ran_on[0].name.startswith("qr2-worker")
            snapshot = app.tier.snapshot()
            assert (snapshot["completed"], snapshot["ran_inline"]) == (5, 5)
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
