"""The statistics panel's shape: every key path, in order, with its value's type.

Captures four panels and the result pages over small deterministic services:

* ``unsharded`` — ``QR2Service.statistics()`` over one-shard sources;
* ``sharded_faulty`` — the same over a 2-shard service with a ``FaultPlan``,
  after a submit, a next page, a catalog delta and one warming pass;
* ``tier`` — ``ConcurrentServingTier.snapshot()``;
* ``crawl`` — ``CrawlStatistics.snapshot()`` of one crawl;
* ``page`` — the submit page and the next page of the ``unsharded`` run,
  rows opaque: a page carries only what its request paid for.

``panel_shape.json`` beside this file is that capture; it is regenerated,
never edited::

    PYTHONPATH=src python -m tests.service.panel_shape

``test_panel_shape.py`` asserts it by exact equality, so a change that adds,
drops, renames or reorders a panel key has to say so.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.core.parallel import QueryEngine
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.service.app import QR2Service
from repro.service.concurrent import ConcurrentServingTier
from repro.service.sources import build_default_registry
from repro.webdb.faults import FaultPlan
from repro.webdb.query import SearchQuery

FIXTURE = Path(__file__).with_name("panel_shape.json")

#: Dictionaries keyed by data (attribute names, region signatures) and a
#: page's rows: only their type is part of the shape.
OPAQUE = frozenset({"per_signature", "splits_per_attribute", "rows"})

SLIDERS = {"price": 1.0, "carat": -0.5}

#: ``(dotted key path, type name)``, in panel order.
Shape = List[Tuple[str, str]]


def shape(value: object, path: str = "") -> Iterator[Tuple[str, str]]:
    """Every leaf of ``value`` as ``(path, type name)``; list items of
    dictionaries are addressed ``path[i]``."""
    if path.rsplit(".", 1)[-1] in OPAQUE:
        yield path, type(value).__name__
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from shape(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list) and value and all(isinstance(item, dict) for item in value):
        for index, item in enumerate(value):
            yield from shape(item, f"{path}[{index}]")
    else:
        yield path, type(value).__name__


def _exercise(service: QR2Service, delta: bool) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Submit, page, optionally apply a delta and warm; the two pages and
    the final panel."""
    session_id = service.create_session()
    pages = {
        "submit": service.submit_query(session_id, "bluenile", sliders=SLIDERS),
        "next": service.get_next_page(session_id),
    }
    if delta:
        db = service.registry.get("bluenile").interface
        victim = dict(db.all_matches(SearchQuery.everything())[0])
        low, high = db.schema.domain_bounds("price")
        victim["price"] = min(high, float(victim["price"]) + (high - low) * 0.005)
        service.apply_delta("bluenile", upserts=[victim])
        service.warmer.warm_once()
    return pages, service.statistics(session_id)


def capture() -> Dict[str, Shape]:
    """The five shapes, in a fixed order."""
    shapes: Dict[str, Shape] = {}
    registry = build_default_registry(
        diamond_config=DiamondCatalogConfig(size=250, seed=5),
        housing_config=HousingCatalogConfig(size=250, seed=6),
        database_config=DatabaseConfig(system_k=10),
        rerank_config=RerankConfig(),
    )
    service = QR2Service(registry=registry, config=ServiceConfig(default_page_size=5))
    try:
        pages, panel = _exercise(service, delta=False)
        shapes["unsharded"] = list(shape(panel))
        shapes["page"] = list(shape(pages))
        shapes["tier"] = list(shape(ConcurrentServingTier(service, workers=1).snapshot()))
        db = registry.get("bluenile").interface
        _, statistics = HiddenDatabaseCrawler(QueryEngine(db)).crawl(
            SearchQuery.build(ranges={"price": (300.0, 3000.0)})
        )
        shapes["crawl"] = list(shape(statistics.snapshot()))
    finally:
        service.close()

    sharded = QR2Service(
        config=ServiceConfig(
            default_page_size=5,
            database=DatabaseConfig(
                system_k=10,
                shards=2,
                fault_plan=FaultPlan(seed=3, transient_rate=0.05, slow_rate=0.1),
            ),
        )
    )
    try:
        shapes["sharded_faulty"] = list(shape(_exercise(sharded, delta=True)[1]))
    finally:
        sharded.close()
    return {
        name: shapes[name] for name in ("unsharded", "sharded_faulty", "tier", "crawl", "page")
    }


def render(shapes: Dict[str, Shape]) -> str:
    return json.dumps(shapes, indent=1) + "\n"


def read_fixture(path: Path = FIXTURE) -> Dict[str, Shape]:
    return {
        name: [(entry[0], entry[1]) for entry in entries]
        for name, entries in json.loads(path.read_text(encoding="utf-8")).items()
    }


if __name__ == "__main__":
    FIXTURE.write_text(render(capture()), encoding="utf-8")
    print(f"wrote {FIXTURE}")
