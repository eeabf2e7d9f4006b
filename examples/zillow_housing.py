#!/usr/bin/env python3
"""Zillow scenario walk-through using the QR2 *service* layer.

This example exercises the path an end user of the demo takes: pick the
housing source, fill the filtering section, set the ranking sliders (or pick a
popular function), read the result pages, and press "get next" — all through
:class:`repro.service.app.QR2Service`, the framework-free equivalent of the
paper's Flask application.

It also reproduces the paper's best case (``price + squarefeet``) and the
Fig. 4 statistics function (``price - 0.3 squarefeet``).

Run with::

    python examples/zillow_housing.py
"""

from __future__ import annotations

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.dataset.table import format_grid
from repro.service.app import QR2Service
from repro.service.popular import popular_functions
from repro.service.sources import build_default_registry


def build_service() -> QR2Service:
    """A QR2 service over moderately sized simulated sources (~1 s latency)."""
    registry = build_default_registry(
        diamond_config=DiamondCatalogConfig(size=1500, seed=11),
        housing_config=HousingCatalogConfig(size=3000, seed=12),
        database_config=DatabaseConfig(system_k=20, latency_seconds=1.0),
        rerank_config=RerankConfig(),
    )
    return QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))


def print_page(response, columns) -> None:
    """Render one result page plus what its request paid for."""
    print(format_grid(columns, response["rows"]))
    stats = response["statistics"]
    print(
        f"  [statistics] {stats['external_queries']} queries issued to the web "
        f"database, {stats['processing_seconds']:.1f} s processing time, "
        f"{stats['cache_hits']} session-cache hits\n"
    )


def main() -> None:
    service = build_service()

    print("Available data sources:")
    for source in service.list_sources():
        print(f"  - {source['name']}: rankable attributes {source['ranking_attributes']}")
    print()

    print("Popular ranking functions suggested for Zillow:")
    for function in popular_functions("zillow"):
        print(f"  - {function.name}: {function.description}")
    print()

    session_id = service.create_session()
    columns = service.describe_source("zillow")["result_columns"]

    # ------------------------------------------------------------------ #
    # Scenario 1: the Fig. 4 function (price - 0.3 squarefeet) with filters.
    # ------------------------------------------------------------------ #
    print("=" * 72)
    print("Scenario 1: price - 0.3 squarefeet, 3+ bedroom houses in Arlington/Fort Worth")
    print("=" * 72)
    response = service.submit_query(
        session_id,
        "zillow",
        filters={
            "ranges": {"bedrooms": (3, 6)},
            "memberships": {"city": ["arlington", "fort_worth"], "home_type": ["house"]},
        },
        sliders={"price": 1.0, "squarefeet": -0.3},
        page_size=5,
    )
    print_page(response, columns)

    print("Pressing get-next for the second page...")
    print_page(service.get_next_page(session_id), columns)

    # ------------------------------------------------------------------ #
    # Scenario 2: the paper's best case — price + squarefeet.
    # ------------------------------------------------------------------ #
    print("=" * 72)
    print("Scenario 2 (best case): price + squarefeet — small, cheap homes first")
    print("=" * 72)
    response = service.submit_query(
        session_id,
        "zillow",
        sliders={"price": 1.0, "squarefeet": 1.0},
        page_size=5,
    )
    print_page(response, columns)

    # ------------------------------------------------------------------ #
    # Scenario 3: simple 1D ordering the site itself does not offer.
    # ------------------------------------------------------------------ #
    print("=" * 72)
    print("Scenario 3: newest construction first (order by year_built desc)")
    print("=" * 72)
    response = service.submit_query(
        session_id,
        "zillow",
        filters={"memberships": {"home_type": ["house", "townhouse"]}},
        ranking={"attribute": "year_built", "ascending": False},
        page_size=5,
    )
    print_page(response, columns)

    print("Session summary:", service.session_info(session_id))


if __name__ == "__main__":
    main()
