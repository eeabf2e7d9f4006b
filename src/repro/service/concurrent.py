"""Concurrent serving tier for the QR2 service.

The synchronous front end (:class:`~repro.service.httpapp.QR2HttpApplication`)
processes one request per calling thread with no admission control: under a
million-user workload a burst either piles onto the GIL unboundedly or — worse
— interleaves two requests of the *same* session, breaking Get-Next semantics
(the emission history must advance one page at a time).  This module adds the
missing execution layer between the HTTP boundary and :class:`QR2Service`:

:class:`ConcurrentServingTier`
    A fixed number of execution slots with a **bounded admission queue**.
    Requests beyond the configured depth are rejected immediately with
    :class:`~repro.exceptions.ServiceOverloadedError` (the HTTP layer maps
    this to ``429``), following standard load-shedding practice: a full queue
    means the client should back off, not wait unboundedly.  Admitted work is
    **serialized per session** — two requests carrying the same serialization
    key never run concurrently or out of submission order, while requests for
    distinct sessions spread across all slots.  A slot is taken either by the
    caller itself (``execute``: the session is idle and a slot is free, so
    the request runs on the thread that brought it) or by a pool worker
    (``submit``, and ``execute`` whenever it has to wait).  ``drain()`` stops
    admission and waits for in-flight work; ``close()`` drains, stops the
    workers, and
    stops the background **session reaper** (a timer thread running
    :meth:`QR2Service.expire_idle_sessions` so idle sessions are retired
    without manual call sites) and the background **feed warmer** (a timer
    thread running :meth:`~repro.service.warming.FeedWarmer.warm_once` so
    feeds retired by catalog deltas are re-led before user traffic needs
    them; enabled via ``ServiceConfig.warming_interval_seconds``).

:class:`ConcurrentQR2Application`
    A drop-in front end with the same ``handle(request) -> response`` shape as
    :class:`QR2HttpApplication`, so it threads straight through
    :func:`~repro.service.httpapp.serve_qr2_over_socket`.  It extracts the
    session identifier from each request to use as the serialization key
    (session-less requests get a unique key and run fully parallel) and maps
    admission rejections to structured ``429`` JSON responses.

``tests/service/test_concurrent.py`` holds the byte-identity claim (pages
served to concurrent sessions equal a sequential pass) and
``benchmarks/request_path`` (``warm_follow``, ``tier.*``) the cost.
"""

from __future__ import annotations

import threading
import uuid
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from functools import partial
from time import monotonic
from typing import Callable, Deque, Dict, List, Optional

from repro.config import ServiceConfig
from repro.exceptions import ServiceOverloadedError
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.service.app import QR2Service
from repro.service.httpapp import QR2HttpApplication
from repro.webdb.counters import Counters


class _Job:
    """One admitted unit of work: a thunk plus the future its caller waits on."""

    __slots__ = ("fn", "future")

    def __init__(self, fn: Callable[[], object]) -> None:
        self.fn = fn
        self.future: "Future[object]" = Future()


@dataclass
class TierCounters(Counters):
    """The tier's counters: peak admitted work, jobs completed (and how many
    ran on their caller's thread), admissions refused, and what the
    maintenance timers did — their failures with the last error string, so
    operators see a sick timer."""

    max_in_flight: int = 0
    completed: int = 0
    ran_inline: int = 0
    rejected: int = 0
    reaped_sessions: int = 0
    warming_runs: int = 0
    deadline_timeouts: int = 0
    reaper_errors: int = 0
    reaper_last_error: str = ""
    warming_errors: int = 0
    warming_last_error: str = ""


class ConcurrentServingTier:
    """Worker pool with bounded admission and per-key serialization.

    Scheduling invariant: a key appears in the ready queue exactly when it has
    pending jobs and no thread is currently executing one of its jobs.  A
    worker takes one job per dispatch; on completion it re-enqueues the key if
    more jobs arrived meanwhile.  That gives FIFO execution per key (never two
    jobs of one key in flight) while distinct keys fan out across the pool.

    A caller of :meth:`execute` runs its own job when the key is idle and
    fewer than ``workers`` jobs are running; it then counts as a running job
    exactly as a pool worker does (one ``_running``), so at most ``workers``
    jobs run at any time whichever thread carries them.
    """

    def __init__(
        self,
        service: QR2Service,
        workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
        reaper_interval_seconds: Optional[float] = None,
        warming_interval_seconds: Optional[float] = None,
    ) -> None:
        config = service.config
        self._service = service
        self._worker_count = workers if workers is not None else config.serving_workers
        self._depth = (
            queue_depth if queue_depth is not None else config.admission_queue_depth
        )
        if self._worker_count <= 0:
            raise ValueError("workers must be positive")
        if self._depth <= 0:
            raise ValueError("queue_depth must be positive")
        interval = (
            reaper_interval_seconds
            if reaper_interval_seconds is not None
            else config.reaper_interval_seconds
        )
        warming_interval = (
            warming_interval_seconds
            if warming_interval_seconds is not None
            else config.warming_interval_seconds
        )

        self._cond = threading.Condition()
        self._queues: Dict[str, Deque[_Job]] = {}
        self._ready: Deque[str] = deque()
        self._admitted = 0
        self._draining = False
        self._stopped = False
        self._closed = False
        self._running = 0
        self._counters = TierCounters()

        self._threads: List[threading.Thread] = [
            threading.Thread(target=self._worker_loop, name=f"qr2-worker-{i}", daemon=True)
            for i in range(self._worker_count)
        ]
        for thread in self._threads:
            thread.start()

        self._reaper_stop = threading.Event()
        self._reaper_thread: Optional[threading.Thread] = None
        if interval is not None and interval > 0:
            self._reaper_thread = threading.Thread(
                target=self._reaper_loop, args=(float(interval),),
                name="qr2-session-reaper", daemon=True,
            )
            self._reaper_thread.start()
        # The background feed warmer shares the reaper's stop event (one
        # shutdown signal stops every maintenance timer) but runs on its own
        # cadence: warming passes replay whole popular requests and should
        # not delay session reaping.
        self._warmer_thread: Optional[threading.Thread] = None
        if warming_interval is not None and warming_interval > 0:
            self._warmer_thread = threading.Thread(
                target=self._warmer_loop, args=(float(warming_interval),),
                name="qr2-feed-warmer", daemon=True,
            )
            self._warmer_thread.start()

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _admit_locked(self) -> None:
        """Refuse or count one unit of work; the condition is held."""
        if self._draining or self._stopped:
            self._counters.record("rejected")
            raise ServiceOverloadedError("serving tier is shutting down")
        if self._admitted >= self._depth:
            self._counters.record("rejected")
            raise ServiceOverloadedError(
                f"admission queue full ({self._admitted} of {self._depth} in flight)"
            )
        self._admitted += 1
        self._counters.peak(max_in_flight=self._admitted)

    def submit(self, fn: Callable[[], object], key: Optional[str] = None) -> "Future[object]":
        """Admit one unit of work for the pool, serialized against other work
        of ``key``.

        ``key=None`` assigns a unique key (no serialization constraint).
        Raises :class:`ServiceOverloadedError` when the admission queue is at
        depth or the tier is draining/closed — the work is *not* executed.
        """
        if key is None:
            key = f"anon:{uuid.uuid4().hex}"
        job = _Job(fn)
        with self._cond:
            self._admit_locked()
            queue = self._queues.get(key)
            if queue is None:
                # No pending or running job for this key: schedule it.
                self._queues[key] = deque([job])
                self._ready.append(key)
            else:
                # A job of this key is pending or running; the thread that
                # finishes it will re-enqueue the key.
                queue.append(job)
            self._cond.notify()
        return job.future

    def execute(self, fn: Callable[[], object], key: Optional[str] = None) -> object:
        """Run ``fn`` under the tier's bounds and return its result
        (re-raising its error).

        Admission is ``submit``'s.  When no job of ``key`` is pending or
        running and a slot is free, ``fn`` runs on the calling thread — no
        queue, wake-up or ``Future`` between the caller and its own request;
        otherwise the job is queued for the pool and the caller waits."""
        if key is None:
            key = f"anon:{uuid.uuid4().hex}"
        with self._cond:
            if key in self._queues or self._running >= self._worker_count:
                # Queued in this same critical section (the condition's lock
                # is re-entrant), so the decision and the admission are one
                # step and same-key order is the order of arrival here.
                future = self.submit(fn, key=key)
            else:
                self._admit_locked()
                # An empty queue entry is what marks the key busy.
                self._queues[key] = deque()
                self._running += 1
                future = None
        if future is not None:
            return future.result()
        try:
            return fn()
        finally:
            self._counters.record("ran_inline")
            with self._cond:
                self._finish_locked(key)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting new work and wait until in-flight work finishes.

        Returns ``True`` when the tier is empty, ``False`` on timeout (the
        tier stays in draining mode either way; new submits are rejected)."""
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            self._draining = True
            while self._admitted > 0:
                remaining = None if deadline is None else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def close(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: drain, stop the workers and the reaper.

        Idempotent; returns ``True`` when everything stopped within
        ``timeout`` (``None`` waits indefinitely for in-flight work)."""
        with self._cond:
            if self._closed:
                return True
            self._closed = True
        self._reaper_stop.set()
        drained = self.drain(timeout=timeout)
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        join_timeout = None if timeout is None else 5.0
        for thread in self._threads:
            thread.join(timeout=join_timeout)
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=join_timeout)
        if self._warmer_thread is not None:
            self._warmer_thread.join(timeout=join_timeout)
        return drained

    @property
    def draining(self) -> bool:
        """True once ``drain``/``close`` stopped admission."""
        with self._cond:
            return self._draining

    def snapshot(self) -> Dict[str, object]:
        """Counters for the statistics panel and the load harness."""
        with self._cond:
            return {
                "workers": self._worker_count,
                "queue_depth": self._depth,
                "in_flight": self._admitted,
                **self._counters.snapshot(),
                "draining": self._draining,
            }

    def record_deadline_timeout(self) -> None:
        """Count one request whose caller gave up at the service deadline
        (the job itself keeps running to completion on its worker)."""
        self._counters.record("deadline_timeouts")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not (self._ready and self._running < self._worker_count):
                    if self._stopped and not self._ready:
                        return
                    self._cond.wait()
                key = self._ready.popleft()
                job = self._queues[key].popleft()
                self._running += 1
                # The (possibly now empty) queue entry stays in the map while
                # the job runs: its presence is what routes later same-key
                # work away from the ready queue.
            try:
                result = job.fn()
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                job.future.set_exception(exc)
            else:
                job.future.set_result(result)
            with self._cond:
                self._finish_locked(key)

    def _finish_locked(self, key: str) -> None:
        """Completion bookkeeping of one job of ``key``, inline or pooled."""
        self._running -= 1
        self._admitted -= 1
        self._counters.record("completed")
        if self._queues[key]:
            self._ready.append(key)
        else:
            del self._queues[key]
        # Idle workers wait on this condition: wake them only for work they
        # can take now, or for ``drain`` watching the count fall.
        if self._ready or self._draining:
            self._cond.notify_all()

    def _reaper_loop(self, interval: float) -> None:
        while not self._reaper_stop.wait(interval):
            try:
                reaped = self._service.expire_idle_sessions()
            except Exception as exc:  # noqa: BLE001 - the timer must survive
                self._counters.record("reaper_errors")
                self._counters.put(reaper_last_error=f"{type(exc).__name__}: {exc}")
                continue
            self._counters.record("reaped_sessions", reaped)

    def _warmer_loop(self, interval: float) -> None:
        while not self._reaper_stop.wait(interval):
            try:
                self._service.warmer.warm_once()
            except Exception as exc:  # noqa: BLE001 - the timer must survive
                self._counters.record("warming_errors")
                self._counters.put(warming_last_error=f"{type(exc).__name__}: {exc}")
                continue
            self._counters.record("warming_runs")


class ConcurrentQR2Application:
    """Concurrent drop-in for :class:`QR2HttpApplication`.

    Exposes the same ``handle`` signature, so it serves over a socket through
    :func:`~repro.service.httpapp.serve_qr2_over_socket` unchanged —
    ``ThreadingHTTPServer`` gives one thread per connection, and this object
    holds those threads to the tier's bounds.  A request runs on its
    connection's own thread (``tier.execute``) unless its session is busy or
    every slot is taken.  With ``request_deadline_seconds`` set every request
    goes to the pool instead: only a job on a second thread can be abandoned
    at the deadline, and that is the one reason the pool path remains the
    front end's."""

    def __init__(
        self,
        service: Optional[QR2Service] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        if service is None:
            service = QR2Service(config=config)
        self._service = service
        self._deadline = service.config.request_deadline_seconds
        if self._deadline is not None and self._deadline <= 0:
            raise ValueError("request_deadline_seconds must be positive")
        self._inner = QR2HttpApplication(service)
        self._tier = ConcurrentServingTier(service)

    @property
    def service(self) -> QR2Service:
        """The underlying application service."""
        return self._service

    @property
    def tier(self) -> ConcurrentServingTier:
        """The worker pool executing admitted requests."""
        return self._tier

    # ------------------------------------------------------------------ #
    def handle(self, request: HttpRequest) -> HttpResponse:
        """Admit and execute one request within the tier's bounds."""
        key = self._serialization_key(request)
        deadline = self._deadline
        run = partial(self._inner.handle, request)
        try:
            if deadline is None:
                return self._tier.execute(run, key=key)  # type: ignore[return-value]
            return self._tier.submit(run, key=key).result(timeout=deadline)  # type: ignore[return-value]
        except ServiceOverloadedError as exc:
            return HttpResponse.json_response(
                {"error": str(exc), "retry": True},
                status=429,
                # Shed load with an explicit back-off hint; the simulated
                # HTTP client honors it before its next attempt.
                headers={"retry-after": "1"},
            )
        except FutureTimeoutError:
            # Distinct from 429: the request *was* admitted, the service just
            # could not answer in time.  The job keeps its worker until it
            # finishes; the client is told to come back, not to shed load.
            self._tier.record_deadline_timeout()
            return HttpResponse.json_response(
                {
                    "error": (
                        "request exceeded the service deadline of "
                        f"{deadline:.3f}s"
                    ),
                    "retry": True,
                    "unavailable": True,
                    "deadline_seconds": deadline,
                },
                status=503,
            )
        except Exception as exc:  # noqa: BLE001 - the serving boundary
            return HttpResponse.json_response(
                {
                    "error": "internal server error",
                    "exception": type(exc).__name__,
                    "detail": str(exc),
                },
                status=500,
            )

    @staticmethod
    def _serialization_key(request: HttpRequest) -> Optional[str]:
        """Session identifier carried by the request, or ``None``.

        Malformed bodies return ``None``: the request still goes through the
        pool (unserialized) and the inner application produces the 400."""
        if request.method == "POST" and request.path in ("/qr2/query", "/qr2/next"):
            try:
                payload = request.json()
            except Exception:  # noqa: BLE001 - inner handler reports the 400
                return None
            if isinstance(payload, dict):
                session_id = payload.get("session_id")
                if isinstance(session_id, str) and session_id:
                    return f"session:{session_id}"
            return None
        if request.method == "GET" and request.path == "/qr2/statistics":
            session_id = request.query_params.get("session", "")
            if session_id:
                return f"session:{session_id}"
        return None

    # ------------------------------------------------------------------ #
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting requests and wait for in-flight ones."""
        return self._tier.drain(timeout=timeout)

    def close(self, timeout: Optional[float] = None, close_service: bool = True) -> None:
        """Drain the tier, stop its workers/reaper, and (by default) close the
        service — closing its request streams and sources (a remote
        adapter's query pool ends).  Idempotent."""
        self._tier.close(timeout=timeout)
        if close_service:
            self._service.close()

    def __enter__(self) -> "ConcurrentQR2Application":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
