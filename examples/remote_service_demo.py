#!/usr/bin/env python3
"""End-to-end networked demo: a web database behind a real HTTP server, the
QR2 reranking service in front of it, and a JSON API client on top.

Three processes-worth of components run inside this one script, wired over
real TCP sockets on localhost:

1. the *web database* — the simulated Blue Nile served by
   ``repro.httpsim.server.serve_database_over_socket`` (this is the role the
   live web site plays in the paper);
2. the *QR2 third-party service* — a :class:`QueryReranker` that reaches the
   web database exclusively through its HTTP search API, exposed to end users
   through the QR2 JSON API (``repro.service.httpapp``);
3. the *end user* — plain ``urllib`` calls against the QR2 JSON API.

Run with::

    python examples/remote_service_demo.py
"""

from __future__ import annotations

import json
import urllib.request

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.core.reranker import QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.dataset.table import format_grid
from repro.httpsim.client import HttpClient, UrllibTransport
from repro.httpsim.server import serve_database_over_socket
from repro.service.app import QR2Service
from repro.service.httpapp import QR2HttpApplication, serve_qr2_over_socket
from repro.service.sources import DataSource, DataSourceRegistry
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.latency import LatencyModel
from repro.webdb.ranking import FeaturedScoreRanking
from repro.webdb.remote import RemoteTopKInterface


def post_json(url: str, payload: dict) -> dict:
    """POST a JSON payload and decode the JSON response."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"content-type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as raw:
        return json.loads(raw.read())


def get_json(url: str) -> dict:
    """GET and decode a JSON response."""
    with urllib.request.urlopen(url, timeout=60) as raw:
        return json.loads(raw.read())


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Start the "web site": a hidden database behind a real HTTP server.
    # ------------------------------------------------------------------ #
    config = DiamondCatalogConfig(size=1200, seed=3)
    database = HiddenWebDatabase(
        catalog=generate_diamond_catalog(config),
        schema=diamond_schema(),
        system_ranking=FeaturedScoreRanking("price", boost_weight=2500.0),
        system_k=20,
        latency=LatencyModel.disabled(),
        name="bluenile-remote",
    )
    site = serve_database_over_socket(database)
    print(f"[web database] listening on {site.base_url}")

    # ------------------------------------------------------------------ #
    # 2. Start QR2: a third-party service that only knows the site's URL.
    # ------------------------------------------------------------------ #
    transport = UrllibTransport(site.base_url)  # keeps its connection to the site
    remote_interface = RemoteTopKInterface(HttpClient(transport))
    registry = DataSourceRegistry()
    registry.register(
        DataSource(
            name="bluenile",
            title="Blue Nile via its public HTTP search API",
            interface=remote_interface,
            reranker=QueryReranker(remote_interface, config=RerankConfig()),
            result_columns=["id", "price", "carat", "cut", "color", "shape"],
        )
    )
    service = QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))
    qr2 = serve_qr2_over_socket(QR2HttpApplication(service))
    print(f"[QR2 service]  listening on {qr2.base_url}\n")

    try:
        # -------------------------------------------------------------- #
        # 3. Act as the end user, over plain HTTP.
        # -------------------------------------------------------------- #
        sources = get_json(f"{qr2.base_url}/qr2/sources")
        print("sources advertised by QR2:", [s["name"] for s in sources["sources"]])
        columns = get_json(f"{qr2.base_url}/qr2/sources/bluenile")["result_columns"]

        session = post_json(f"{qr2.base_url}/qr2/sessions", {})
        session_id = session["session_id"]
        print(f"created session {session_id[:8]}…\n")

        print("query: carat in [0.8, 2.0], ranked by price - 0.5 carat")
        first_page = post_json(
            f"{qr2.base_url}/qr2/query",
            {
                "session_id": session_id,
                "source": "bluenile",
                "filters": {"ranges": {"carat": [0.8, 2.0]}},
                "sliders": {"price": 1.0, "carat": -0.5},
                "page_size": 5,
            },
        )
        print(format_grid(columns, first_page["rows"]))
        print("statistics:", {
            "external_queries": first_page["statistics"]["external_queries"],
            "processing_seconds": round(first_page["statistics"]["processing_seconds"], 2),
        })

        print("\nget-next (page 2):")
        second_page = post_json(f"{qr2.base_url}/qr2/next", {"session_id": session_id})
        print(format_grid(columns, second_page["rows"]))

        meta = get_json(f"{site.base_url}/api/meta")
        print(
            f"\nThe web site served {meta['queries_served']} search queries in total "
            f"to answer this session."
        )
    finally:
        qr2.shutdown()
        transport.close()
        site.shutdown()
        print("\nservers stopped.")


if __name__ == "__main__":
    main()
