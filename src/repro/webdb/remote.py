"""HTTP-backed implementation of the top-k interface.

:class:`RemoteTopKInterface` is what the deployed QR2 actually uses: it knows
nothing about the database's internals and reaches it exclusively through the
public search API (here: the endpoints served by
:class:`~repro.httpsim.server.SearchHttpServer`).  The schema is discovered
once from ``/api/schema``; every ``search`` call serializes the query to URL
parameters, performs a GET, and parses the JSON result back into a
:class:`~repro.webdb.interface.SearchResult`.

Running the reranking algorithms against this adapter (instead of directly
against :class:`~repro.webdb.database.HiddenWebDatabase`) exercises exactly
the code path the paper's third-party service runs in production.

It is the one source whose round trips are real, so it is the one that holds
threads: a batch (a parallel query group) overlaps its GETs on a bounded
``qr2-query`` pool that the adapter owns and its ``close`` shuts down.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

from repro.dataset.schema import Schema
from repro.exceptions import RemoteInterfaceError
from repro.httpsim import wire
from repro.httpsim.client import HttpClient
from repro.webdb.counters import QueryCounter
from repro.webdb.interface import SearchResult, Settlement, TopKInterface, answers
from repro.webdb.query import SearchQuery

#: Bound on the GETs one adapter has in flight, however many requests share it.
QUERY_WORKERS = 8


class RemoteTopKInterface(TopKInterface):
    """Top-k interface backed by a remote (or in-process) search API.

    Its pool of :data:`QUERY_WORKERS` threads starts on the first batch of
    two or more queries (one query runs on the caller's thread) and again on
    the first after :meth:`close`.
    """

    def __init__(self, client: HttpClient) -> None:
        self._client = client
        self._counter = QueryCounter()
        self._schema: Optional[Schema] = None
        self._system_k: Optional[int] = None
        self._name: Optional[str] = None
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # Lazy discovery of the remote search form
    # ------------------------------------------------------------------ #
    def _discover(self) -> None:
        if self._schema is not None and self._system_k is not None:
            return
        schema_payload = self._client.get_json("/api/schema")
        meta_payload = self._client.get_json("/api/meta")
        if not isinstance(schema_payload, dict) or not isinstance(meta_payload, dict):
            raise RemoteInterfaceError("malformed discovery payloads")
        self._schema = wire.decode_schema(schema_payload)
        self._system_k = int(meta_payload["system_k"])
        self._name = str(meta_payload.get("name", "remote"))

    @property
    def schema(self) -> Schema:
        self._discover()
        assert self._schema is not None
        return self._schema

    @property
    def system_k(self) -> int:
        self._discover()
        assert self._system_k is not None
        return self._system_k

    @property
    def name(self) -> str:
        """Display name advertised by the remote database."""
        self._discover()
        assert self._name is not None
        return self._name

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, query: SearchQuery) -> SearchResult:
        """Execute a top-k query against the remote search API."""
        self._discover()
        params = wire.encode_query(query)
        payload = self._client.get_json("/api/search", params)
        if not isinstance(payload, dict):
            raise RemoteInterfaceError("malformed search payload")
        self._counter.increment()
        return wire.decode_result(payload, query)

    def search_many(self, queries: Sequence[SearchQuery]) -> List[SearchResult]:
        return answers(self.settle_many(queries))

    def settle_many(self, queries: Sequence[SearchQuery]) -> List[Settlement]:
        """Overlap the batch's GETs on the adapter's pool; each query settles
        on its own, so one that fails leaves its siblings answered."""
        batch = list(queries)
        if len(batch) < 2:  # nothing to overlap: no thread hop
            return [self._settle(query) for query in batch]
        self._discover()  # once, here, rather than raced by the workers
        # Submitting under the lock keeps a concurrent close() from shutting
        # the pool between its creation and the submissions.
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=QUERY_WORKERS, thread_name_prefix="qr2-query"
                )
            futures = [self._pool.submit(self._settle, query) for query in batch]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the query pool down once its GETs finish; the adapter stays
        usable and the next batch starts a fresh pool."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _settle(self, query: SearchQuery) -> Settlement:
        try:
            return self.search(query)
        except Exception as error:  # noqa: BLE001 - settled, not raised
            return error

    def queries_issued(self) -> int:
        """Number of search queries sent through this adapter."""
        return self._counter.count
