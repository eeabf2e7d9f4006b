"""HTTP client used by the reranking service to reach a web database.

The client mirrors the small part of the ``requests`` API the original system
uses (``get`` with params, JSON decoding, retries on transient failures) and is
parameterized by a *transport* so the same client code can talk to

* an in-process :class:`~repro.httpsim.server.SearchHttpServer`
  (:class:`InProcessTransport`, used by tests and benchmarks), or
* a real socket server started with
  :func:`~repro.httpsim.server.serve_database_over_socket`
  (:class:`UrllibTransport`, used by the networked example).
"""

from __future__ import annotations

import http.client
import threading
import time
from abc import ABC, abstractmethod
from typing import Callable, List, Mapping, Optional
from urllib.parse import urlencode, urlsplit

from repro.exceptions import RemoteInterfaceError
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.webdb.resilience import RetryPolicy


class Transport(ABC):
    """Delivers a request to a server and returns its response."""

    @abstractmethod
    def send(self, request: HttpRequest) -> HttpResponse:
        """Deliver ``request`` and return the response."""


class InProcessTransport(Transport):
    """Transport that calls an in-process application object directly."""

    def __init__(self, application) -> None:
        self._application = application

    def send(self, request: HttpRequest) -> HttpResponse:
        return self._application.handle(request)


class UrllibTransport(Transport):
    """Transport that performs real HTTP requests over persistent
    connections: one ``http.client`` connection per calling thread (a
    :class:`~repro.webdb.remote.RemoteTopKInterface` overlaps a query
    group's GETs on its ``qr2-query`` pool, and a single query runs on the
    request's own thread), so an external query costs a round trip, not a
    TCP handshake and a round trip."""

    def __init__(self, base_url: str, timeout_seconds: float = 10.0) -> None:
        self._base_url = base_url.rstrip("/")
        self._timeout = timeout_seconds
        parts = urlsplit(self._base_url)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()
        self._connections: List[http.client.HTTPConnection] = []  # every thread's

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(self._netloc, timeout=self._timeout)
            self._local.connection = connection
            self._connections.append(connection)
        return connection

    def close(self) -> None:
        """Close every thread's kept connection (a later ``send`` reconnects)."""
        for connection in list(self._connections):
            connection.close()

    def _round_trip(self, target: str) -> HttpResponse:
        connection = self._connection()
        connection.request("GET", target)  # connects if the socket is closed
        raw = connection.getresponse()
        body = raw.read().decode("utf-8")
        headers = {key.lower(): value for key, value in raw.headers.items()}
        return HttpResponse(status=raw.status, headers=headers, body=body)

    def send(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            raise RemoteInterfaceError(
                f"UrllibTransport only supports GET, got {request.method}"
            )
        target = self._prefix + request.path
        if request.query_params:
            target = f"{target}?{urlencode(dict(request.query_params))}"
        try:
            try:
                return self._round_trip(target)
            except (http.client.RemoteDisconnected, ConnectionError):
                # The server closed the kept connection since its last use
                # (idle timeout, restart), which shows only now: one
                # reconnect is part of reusing it.  The GETs are idempotent.
                self._connection().close()
                return self._round_trip(target)
        except (OSError, http.client.HTTPException) as exc:
            self._connection().close()
            raise RemoteInterfaceError(
                f"could not reach {self._base_url}{target}: {exc}"
            ) from exc


class HttpClient:
    """Small ``requests``-like client with retries for transient failures.

    Retryable outcomes are transport errors, 5xx statuses, and 429s.  The
    waits between attempts come from a seeded
    :class:`~repro.webdb.resilience.RetryPolicy` (capped exponential backoff
    with decorrelated jitter), so a replayed call sequence replays its delay
    sequence byte for byte; a 429 carrying ``Retry-After`` overrides the
    jittered delay with the server's own hint.  ``sleeper`` is injectable so
    tests and simulations observe the chosen delays without sleeping.
    """

    def __init__(
        self,
        transport: Transport,
        max_retries: int = 2,
        backoff_seconds: float = 0.0,
        backoff_cap_seconds: float = 2.0,
        backoff_seed: int = 17,
        sleeper: Optional[Callable[[float], None]] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._transport = transport
        self._max_retries = max_retries
        self._policy = RetryPolicy(
            max_attempts=max_retries + 1,
            base_seconds=backoff_seconds,
            cap_seconds=backoff_cap_seconds,
            seed=backoff_seed,
        )
        self._sleeper = sleeper if sleeper is not None else time.sleep
        self.requests_sent = 0
        self.retries = 0
        self.rate_limited = 0
        self.backoff_waited_seconds = 0.0
        self._calls = 0

    def get(self, path: str, params: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """Send a GET request, retrying transient (5xx / 429 / transport)
        failures."""
        request = HttpRequest.get(path, params)
        return self._send_with_retries(request)

    def get_json(self, path: str, params: Optional[Mapping[str, str]] = None) -> object:
        """GET and decode a JSON response, raising on non-2xx statuses."""
        response = self.get(path, params)
        if not response.ok:
            raise RemoteInterfaceError(
                f"GET {path} failed with status {response.status}: {response.body[:200]}",
                retry_after_seconds=response.retry_after_seconds()
                if response.status == 429
                else None,
            )
        return response.json()

    def _send_with_retries(self, request: HttpRequest) -> HttpResponse:
        token = self._calls
        self._calls += 1
        delays = self._policy.delays(token)
        last_error: Optional[Exception] = None
        last_response: Optional[HttpResponse] = None
        for attempt in range(self._max_retries + 1):
            retry_after: Optional[float] = None
            try:
                self.requests_sent += 1
                response = self._transport.send(request)
            except RemoteInterfaceError as exc:
                last_error, last_response = exc, None
            else:
                if response.status == 429:
                    # Rate limited: the server told us to go away for a bit.
                    self.rate_limited += 1
                    retry_after = response.retry_after_seconds()
                    last_error, last_response = None, response
                elif response.status < 500:
                    return response
                else:
                    last_error = RemoteInterfaceError(
                        f"server error {response.status} for {request.url}"
                    )
                    last_response = None
            if attempt >= self._max_retries:
                break
            self.retries += 1
            wait = delays[attempt] if attempt < len(delays) else 0.0
            if retry_after is not None and retry_after > 0:
                wait = retry_after
            if wait > 0:
                self.backoff_waited_seconds += wait
                self._sleeper(wait)
        if last_response is not None:
            # Retries exhausted while rate limited: surface the last 429 —
            # the caller sees the status instead of a masked exception.
            return last_response
        assert last_error is not None
        raise last_error
