"""Concurrent serving tier for the QR2 service.

The synchronous front end (:class:`~repro.service.httpapp.QR2HttpApplication`)
processes one request per calling thread with no admission control: under a
million-user workload a burst either piles onto the GIL unboundedly or — worse
— interleaves two requests of the *same* session, breaking Get-Next semantics
(the emission history must advance one page at a time).  This module adds the
missing bounds between the HTTP boundary and :class:`QR2Service`, and no
thread of its own: like the paper's Flask application, a request runs on the
thread that carried it.

:class:`ConcurrentServingTier`
    A fixed number of execution slots with **bounded admission**.  Requests
    beyond the configured depth are rejected immediately with
    :class:`~repro.exceptions.ServiceOverloadedError` (the HTTP layer maps
    this to ``429``), following standard load-shedding practice: a full queue
    means the client should back off, not wait unboundedly.  Admitted work is
    **serialized per key** — two requests carrying the same serialization
    key never run concurrently or out of arrival order, while requests for
    distinct sessions spread across all slots.  ``drain()`` stops admission
    and waits for admitted work.

:class:`ConcurrentQR2Application`
    A drop-in front end with the same ``handle(request) -> response`` shape as
    :class:`QR2HttpApplication`, so it threads straight through
    :func:`~repro.service.httpapp.serve_qr2_over_socket`.  It extracts the
    session identifier from each request to use as the serialization key
    (session-less requests get a unique key and run fully parallel) and maps
    admission rejections to structured ``429`` JSON responses; every other
    error, a crash included, is the wrapped application's 400 / 503 / 500.

Idle sessions are expired by :meth:`QR2Service.create_session`, not by a
timer.  ``tests/service/test_concurrent.py`` holds the byte-identity claim
(pages served to concurrent sessions equal a sequential pass) and
``benchmarks/request_path`` (``warm_follow``, ``tier.*``) the cost.
"""

from __future__ import annotations

import threading
import uuid
from collections import deque
from dataclasses import dataclass
from functools import partial
from time import monotonic
from typing import Callable, Deque, Dict, Optional

from repro.exceptions import ServiceOverloadedError
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.service.app import QR2Service
from repro.service.httpapp import QR2HttpApplication
from repro.webdb.counters import Counters


@dataclass
class TierCounters(Counters):
    """The tier's counters: peak admitted work, jobs completed, and
    admissions refused."""

    max_in_flight: int = 0
    completed: int = 0
    rejected: int = 0


class ConcurrentServingTier:
    """Bounded admission, at most ``workers`` running jobs, and per-key FIFO
    serialization — on the callers' own threads.

    An admitted job appends a ticket to its key's queue and runs once the
    ticket is at the head and a slot is free.  A job waiting behind its own
    key holds no slot, so a busy session never blocks another session.
    """

    def __init__(
        self,
        service: QR2Service,
        workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
    ) -> None:
        config = service.config
        self._worker_count = workers if workers is not None else config.serving_workers
        self._depth = (
            queue_depth if queue_depth is not None else config.admission_queue_depth
        )
        if self._worker_count <= 0:
            raise ValueError("workers must be positive")
        if self._depth <= 0:
            raise ValueError("queue_depth must be positive")
        self._cond = threading.Condition()
        self._queues: Dict[str, Deque[object]] = {}
        self._admitted = 0
        self._draining = False
        self._running = 0
        self._counters = TierCounters()

    def submit(self, fn: Callable[[], object], key: Optional[str] = None) -> object:
        """Run ``fn`` on the calling thread under the tier's bounds, serialized
        against other work of ``key``; return its result or re-raise its error.

        ``key=None`` assigns a unique key (no serialization constraint).
        Raises :class:`ServiceOverloadedError` when the tier already holds
        ``queue_depth`` admitted jobs or is draining — ``fn`` is *not* run.
        """
        if key is None:
            key = f"anon:{uuid.uuid4().hex}"
        ticket = object()
        with self._cond:
            if self._draining:
                self._counters.record("rejected")
                raise ServiceOverloadedError("serving tier is shutting down")
            if self._admitted >= self._depth:
                self._counters.record("rejected")
                raise ServiceOverloadedError(
                    f"admission queue full ({self._admitted} of {self._depth} in flight)"
                )
            self._admitted += 1
            self._counters.peak(max_in_flight=self._admitted)
            queue = self._queues.setdefault(key, deque())
            queue.append(ticket)
            while queue[0] is not ticket or self._running >= self._worker_count:
                self._cond.wait()
            self._running += 1
        try:
            return fn()
        finally:
            with self._cond:
                self._running -= 1
                self._admitted -= 1
                self._counters.record("completed")
                queue.popleft()
                if not queue:
                    del self._queues[key]
                self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting new work and wait until admitted work finishes.

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


class ConcurrentQR2Application:
    """Concurrent drop-in for :class:`QR2HttpApplication`.

    Exposes the same ``handle`` signature, so it serves over a socket through
    :func:`~repro.service.httpapp.serve_qr2_over_socket` unchanged —
    ``ThreadingHTTPServer`` gives one thread per connection, and this object
    holds those threads to the tier's bounds.  Every request runs on its
    connection's own thread."""

    def __init__(self, service: Optional[QR2Service] = None) -> None:
        if service is None:
            service = QR2Service()
        self._service = service
        self._inner = QR2HttpApplication(service)
        self._tier = ConcurrentServingTier(service)

    @property
    def service(self) -> QR2Service:
        """The underlying application service."""
        return self._service

    @property
    def tier(self) -> ConcurrentServingTier:
        """The tier bounding admitted requests."""
        return self._tier

    # ------------------------------------------------------------------ #
    def handle(self, request: HttpRequest) -> HttpResponse:
        """Admit and run one request within the tier's bounds.

        Only a refused admission is answered here (``429``); every error of
        the request itself, a crash included, is already a response from
        :meth:`QR2HttpApplication.handle`."""
        try:
            return self._tier.submit(  # type: ignore[return-value]
                partial(self._inner.handle, request), key=self._serialization_key(request)
            )
        except ServiceOverloadedError as exc:
            return HttpResponse.json_response(
                {"error": str(exc), "retry": True},
                status=429,
                # Shed load with an explicit back-off hint; the simulated
                # HTTP client honors it before its next attempt.
                headers={"retry-after": "1"},
            )

    @staticmethod
    def _serialization_key(request: HttpRequest) -> Optional[str]:
        """Session identifier carried by the request, or ``None``.

        Malformed bodies return ``None``: the request still goes through the
        tier (unserialized) and the inner application produces the 400."""
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
        """Drain the tier and (by default) close the service — closing its
        request streams and sources (a remote adapter's query pool ends).
        Idempotent."""
        self._tier.drain(timeout=timeout)
        if close_service:
            self._service.close()

    def __enter__(self) -> "ConcurrentQR2Application":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
