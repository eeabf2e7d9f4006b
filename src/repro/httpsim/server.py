"""Search API servers for simulated web databases.

Two deployments are supported:

* :class:`SearchHttpServer` — an in-process application object that maps
  :class:`~repro.httpsim.messages.HttpRequest` to
  :class:`~repro.httpsim.messages.HttpResponse`.  The unit tests and the
  default benchmark setup use this: the full request/serialize/parse path is
  exercised without opening sockets.
* :func:`serve_database_over_socket` — the same application served over a real
  TCP socket using the standard library's ``http.server``, so the examples can
  demonstrate a genuinely remote web database.  The socket adapter
  (:func:`serve_application_over_socket`) is the one the QR2 JSON API is
  served through as well.

The exposed routes mirror what a deep-web search form provides:

========  =====================  ==========================================
method    path                   meaning
========  =====================  ==========================================
GET       /api/schema            advertise the search form (schema)
GET       /api/search?...        top-k search with URL-encoded predicates
GET       /api/meta              database name, size, and system-k
========  =====================  ==========================================
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Set, Tuple

from repro.exceptions import QueryError, SchemaError, WireFormatError
from repro.httpsim import wire
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.webdb.database import HiddenWebDatabase


class SearchHttpServer:
    """In-process HTTP application exposing one hidden web database."""

    def __init__(self, database: HiddenWebDatabase) -> None:
        self._database = database
        self._routes: Dict[Tuple[str, str], Callable[[HttpRequest], HttpResponse]] = {
            ("GET", "/api/schema"): self._handle_schema,
            ("GET", "/api/search"): self._handle_search,
            ("GET", "/api/meta"): self._handle_meta,
        }

    @property
    def database(self) -> HiddenWebDatabase:
        """The database served by this application."""
        return self._database

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one request to its route handler."""
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            return HttpResponse.error(404, f"no route for {request.method} {request.path}")
        try:
            return handler(request)
        except (QueryError, SchemaError, WireFormatError) as exc:
            return HttpResponse.error(400, str(exc))

    # ------------------------------------------------------------------ #
    # Route handlers
    # ------------------------------------------------------------------ #
    def _handle_schema(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json_response(wire.encode_schema(self._database.schema))

    def _handle_meta(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json_response(
            {
                "name": self._database.name,
                "size": self._database.size,
                "system_k": self._database.system_k,
                "queries_served": self._database.queries_issued(),
            }
        )

    def _handle_search(self, request: HttpRequest) -> HttpResponse:
        query = wire.decode_query(request.query_params, self._database.schema)
        result = self._database.search(query)
        return HttpResponse.json_response(
            wire.encode_result(result, self._database.key_column)
        )


#: Largest POST body the socket adapter reads; a longer (or malformed)
#: ``Content-Length`` is refused before a byte of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Seconds a persistent connection may sit between requests before its
#: handler thread closes it.  A caller that keeps one ``http.client``
#: connection does not retry a reply-less request, so this must dwarf any
#: pause between two of its requests.
IDLE_TIMEOUT_SECONDS = 60.0


class ApplicationSocketHandler(BaseHTTPRequestHandler):
    """Adapts ``http.server`` requests onto an in-process application — any
    object with ``handle(HttpRequest) -> HttpResponse``.

    Connections are persistent (HTTP/1.1): one handler thread serves every
    request of its connection, so a caller that keeps its socket pays the TCP
    connect, the accept and the thread start once.  Every reply therefore
    carries an exact ``Content-Length``, and a reply that leaves request
    bytes unread closes the connection."""

    application: object  # bound by serve_application_over_socket

    protocol_version = "HTTP/1.1"
    # Headers and body leave as two segments; without TCP_NODELAY the second
    # waits ~40 ms on Nagle's algorithm against the peer's delayed ACK.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_SECONDS

    def parse_request(self) -> bool:
        # ``shutdown()`` wakes an idle handler with EOF, but a request that
        # reached the socket first is still read: drop it unanswered (the
        # stdlib's "already dealt with" return), so that nothing is served
        # once ``shutdown()`` has returned.
        if self.server.closing:
            self.close_connection = True
            return False
        return super().parse_request()

    def _respond(self, response: HttpResponse, body_read: int = 0) -> None:
        """Write ``response``.  ``body_read`` is how many request-body bytes
        the handler consumed: when the request declared anything else, what
        it did send is still in the stream and would be parsed as the next
        request line, so the connection closes instead.  It also closes once
        the server is shutting down."""
        body = response.body.encode("utf-8")
        self.send_response(response.status)
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.send_header("content-length", str(len(body)))
        if self.server.closing or not self._declared_exactly(body_read):
            # ``send_header`` also sets ``close_connection`` on this one.
            self.send_header("connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _declared_exactly(self, body_read: int) -> bool:
        if "transfer-encoding" in self.headers:
            return False
        try:
            return int(self.headers.get("content-length", "0")) == body_read
        except ValueError:
            return False

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        try:
            request = HttpRequest.from_url("GET", self.path)
        except Exception as exc:  # noqa: BLE001 - malformed request line
            self._respond(HttpResponse.error(400, f"malformed request: {exc}"))
            return
        self._respond(self.application.handle(request))

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        # The length is checked before the read: ``read(-1)`` runs to EOF and
        # an overstated length waits for bytes that never come, either of
        # which would pin this thread until the client gives up.
        declared = self.headers.get("content-length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._respond(HttpResponse.error(400, f"bad content-length: {declared!r}"))
            return
        if length > MAX_BODY_BYTES:
            self._respond(
                HttpResponse.error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            )
            return
        try:
            body = self.rfile.read(length).decode("utf-8") if length else "{}"
            request = HttpRequest(method="POST", path=self.path.split("?")[0], body=body)
        except Exception as exc:  # noqa: BLE001 - malformed request/body
            self._respond(HttpResponse.error(400, f"malformed request: {exc}"))
            return
        self._respond(self.application.handle(request), body_read=length)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence per-request logging (callers print their own statistics)."""


class _ConnectionTrackingServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that knows its open connections.

    The stdlib runs handlers as untracked daemon threads; with persistent
    connections one of them sits in ``readline()`` on every idle connection
    and would outlive the server by the idle timeout."""

    def __init__(self, address: Tuple[str, int], handler_class: type) -> None:
        super().__init__(address, handler_class)
        self._lock = threading.Lock()
        self._open: Set[socket.socket] = set()
        self.connections_accepted = 0
        self.closing = False

    def process_request(self, request, client_address) -> None:  # type: ignore[no-untyped-def]
        with self._lock:
            self._open.add(request)
            self.connections_accepted += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:  # type: ignore[no-untyped-def]
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection: a handler waiting for the next request
        reads EOF and exits; one mid-request still writes its reply (marked
        ``Connection: close``) first."""
        with self._lock:
            self.closing = True
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer or the handler already closed it


class SocketServerHandle:
    """Handle over a background socket server (host, port, and shutdown)."""

    def __init__(
        self,
        server: _ConnectionTrackingServer,
        thread: threading.Thread,
        on_shutdown: Optional[Callable[[], None]] = None,
    ) -> None:
        self._server = server
        self._thread = thread
        self._on_shutdown = on_shutdown

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the server is bound to."""
        return self._server.server_address  # type: ignore[return-value]

    @property
    def base_url(self) -> str:
        """Base URL of the server."""
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def connections_accepted(self) -> int:
        """TCP connections accepted so far (requests on a reused connection
        do not count)."""
        return self._server.connections_accepted

    def shutdown(self) -> None:
        """Stop accepting, end every open connection (so no handler thread
        is left parked on an idle one) and join the server thread."""
        self._server.shutdown()
        self._server.close_connections()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        if self._on_shutdown is not None:
            self._on_shutdown()


def serve_application_over_socket(
    application: object,
    host: str,
    port: int,
    on_shutdown: Optional[Callable[[], None]] = None,
) -> SocketServerHandle:
    """Serve an in-process application over a real TCP socket in a daemon
    thread.

    ``port=0`` binds an ephemeral port; the chosen port is available from the
    returned handle.  The caller is responsible for calling ``shutdown()``,
    which runs ``on_shutdown`` last.
    """
    handler_class = type(
        "BoundSocketHandler", (ApplicationSocketHandler,), {"application": application}
    )
    server = _ConnectionTrackingServer((host, port), handler_class)
    # ``shutdown()`` waits for the accept loop to notice it, one poll at most.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return SocketServerHandle(server, thread, on_shutdown)


def serve_database_over_socket(
    database: HiddenWebDatabase,
    host: str = "127.0.0.1",
    port: int = 0,
) -> SocketServerHandle:
    """Serve a hidden web database's search API over a real TCP socket."""
    return serve_application_over_socket(SearchHttpServer(database), host, port)
