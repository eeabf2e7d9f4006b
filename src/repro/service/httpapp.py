"""JSON HTTP API for the QR2 service.

The original demonstration serves its UI with Flask.  Flask is not available
here, so this module exposes the same operations as a small JSON API on the
standard library's ``http.server``:

========  ==========================  ==========================================
method    path                        meaning
========  ==========================  ==========================================
GET       /qr2/sources                list data sources
GET       /qr2/sources/<name>         describe one source (incl. popular funcs)
POST      /qr2/sessions               create a session
POST      /qr2/query                  submit a query (first result page)
POST      /qr2/next                   next result page for a session
GET       /qr2/statistics?session=…   statistics panel for a session
========  ==========================  ==========================================

The same handler object also works in-process (without sockets) through
:meth:`QR2HttpApplication.handle`, which is what the integration tests use.
"""

from __future__ import annotations

import gc
import math
from typing import Optional

from repro.exceptions import QR2Error, SourceUnavailableError
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.httpsim.server import (
    ApplicationSocketHandler,
    SocketServerHandle,
    serve_application_over_socket,
)
from repro.service.app import QR2Service


class QR2HttpApplication:
    """Routes HTTP requests onto a :class:`~repro.service.app.QR2Service`."""

    def __init__(self, service: Optional[QR2Service] = None) -> None:
        self._service = service or QR2Service()

    @property
    def service(self) -> QR2Service:
        """The underlying application service."""
        return self._service

    # ------------------------------------------------------------------ #
    def handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one request.

        Expected application errors (:class:`QR2Error`) map to 400, except
        :class:`SourceUnavailableError` (which includes circuit-open and
        timeout errors), which maps to a structured 503 with a
        ``Retry-After`` hint: the request was well-formed, the backing source
        just cannot answer right now.  Anything else is a bug in the service,
        reported as a structured 500 JSON body instead of propagating and
        killing the calling handler thread.
        """
        try:
            return self._route(request)
        except SourceUnavailableError as exc:
            # Must precede the QR2Error arm: it is a QR2Error subclass.
            headers = {}
            retry_after = exc.retry_after_seconds
            if retry_after is not None and retry_after > 0:
                headers["retry-after"] = str(int(math.ceil(retry_after)))
            return HttpResponse.json_response(
                {
                    "error": str(exc),
                    "unavailable": True,
                    "retry": True,
                    "exception": type(exc).__name__,
                    "source": exc.source,
                },
                status=503,
                headers=headers,
            )
        except QR2Error as exc:
            return HttpResponse.error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - the serving boundary
            return HttpResponse.json_response(
                {
                    "error": "internal server error",
                    "exception": type(exc).__name__,
                    "detail": str(exc),
                },
                status=500,
            )

    def _route(self, request: HttpRequest) -> HttpResponse:
        if request.method == "GET" and request.path == "/qr2/sources":
            return HttpResponse.json_response({"sources": self._service.list_sources()})
        if request.method == "GET" and request.path.startswith("/qr2/sources/"):
            name = request.path.rsplit("/", 1)[-1]
            return HttpResponse.json_response(self._service.describe_source(name))
        if request.method == "POST" and request.path == "/qr2/sessions":
            return HttpResponse.json_response({"session_id": self._service.create_session()})
        if request.method == "POST" and request.path == "/qr2/query":
            payload = request.json()
            if not isinstance(payload, dict):
                return HttpResponse.error(400, "request body must be a JSON object")
            return HttpResponse.json_response(
                self._service.submit_query(
                    session_id=str(payload.get("session_id", "")),
                    source_name=str(payload.get("source", "")),
                    filters=payload.get("filters"),
                    sliders=payload.get("sliders"),
                    ranking=payload.get("ranking"),
                    algorithm=str(payload.get("algorithm", "rerank")),
                    page_size=payload.get("page_size"),
                )
            )
        if request.method == "POST" and request.path == "/qr2/next":
            payload = request.json()
            if not isinstance(payload, dict):
                return HttpResponse.error(400, "request body must be a JSON object")
            return HttpResponse.json_response(
                self._service.get_next_page(str(payload.get("session_id", "")))
            )
        if request.method == "GET" and request.path == "/qr2/statistics":
            session_id = request.query_params.get("session", "")
            return HttpResponse.json_response(self._service.statistics(session_id))
        return HttpResponse.error(404, f"no route for {request.method} {request.path}")


#: The socket handler serving this API: the shared adapter, under the name
#: the request-path benchmark binds its ``wire`` span to.
_QR2SocketHandler = ApplicationSocketHandler


def serve_qr2_over_socket(
    application: Optional[QR2HttpApplication] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> SocketServerHandle:
    """Serve the QR2 JSON API on a real TCP socket in a daemon thread.

    The application and its catalogs live as long as the server, so once
    they exist everything allocated so far is frozen out of the cyclic
    collector (``gc.freeze``) and its full collections stop walking that
    start-up heap.  ``shutdown()`` unfreezes it, so a process that starts
    many servers does not pin their cyclic garbage.  The server owns its
    process's collector this way; the :class:`QR2Service` library does
    not."""
    application = application or QR2HttpApplication()
    gc.freeze()
    return serve_application_over_socket(application, host, port, on_shutdown=gc.unfreeze)


def main() -> None:  # pragma: no cover - interactive entry point
    """Run the QR2 JSON API over the default simulated sources.

    ``python -m repro.service.httpapp [port]`` starts the service on the given
    port (default 8080) and blocks until interrupted.
    """
    import sys
    import time

    port = int(sys.argv[1]) if len(sys.argv) > 1 else 8080
    handle = serve_qr2_over_socket(port=port)
    print(f"QR2 service listening on {handle.base_url}")
    print("endpoints: GET /qr2/sources, POST /qr2/sessions, POST /qr2/query, POST /qr2/next")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        handle.shutdown()


if __name__ == "__main__":  # pragma: no cover
    main()
