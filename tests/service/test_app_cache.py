"""End-to-end tests for the shared query-result cache in the QR2 service."""

import pytest

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.service.app import QR2Service
from repro.service.sources import build_default_registry
from repro.webdb.query import SearchQuery

SLIDERS = {"price": 1.0, "carat": -0.5}
FILTERS = {"ranges": {"carat": (0.5, 3.0)}}


def _make_service() -> QR2Service:
    # The rerank feed is ablated: these tests isolate the result cache, and
    # with the feed on the second session replays the whole stream for free
    # whether or not the cache kept the first session's answers.
    rerank_config = RerankConfig(enable_rerank_feed=False)
    registry = build_default_registry(
        diamond_config=DiamondCatalogConfig(size=350, seed=5),
        housing_config=HousingCatalogConfig(size=400, seed=6),
        database_config=DatabaseConfig(system_k=10),
        rerank_config=rerank_config,
    )
    return QR2Service(
        registry=registry,
        config=ServiceConfig(default_page_size=5, rerank=rerank_config),
    )


def _run_session(service: QR2Service, algorithm: str = "rerank"):
    session_id = service.create_session()
    response = service.submit_query(
        session_id,
        "bluenile",
        filters=FILTERS,
        sliders=SLIDERS,
        algorithm=algorithm,
    )
    return response


class TestServiceResultCache:
    def test_second_session_issues_strictly_fewer_queries_than_uncached(self):
        # Uncached baseline: the same request, run on two fresh services,
        # pays full price twice.
        uncached_first = _run_session(_make_service())
        uncached_second = _run_session(_make_service())
        uncached_total = (
            uncached_first["statistics"]["external_queries"]
            + uncached_second["statistics"]["external_queries"]
        )

        cached = _make_service()
        cached_first = _run_session(cached)
        cached_second = _run_session(cached)
        cached_total = (
            cached_first["statistics"]["external_queries"]
            + cached_second["statistics"]["external_queries"]
        )

        # Two cached sessions with the same sliders must beat one uncached
        # session run twice, and the second cached session must see hits.
        assert cached_total < uncached_total
        assert cached_second["statistics"]["result_cache_hits"] > 0
        assert (
            cached_second["statistics"]["external_queries"]
            < uncached_second["statistics"]["external_queries"]
        )

        # Caching must not change what the user sees.
        assert [row["id"] for row in cached_first["rows"]] == [
            row["id"] for row in uncached_first["rows"]
        ]
        assert [row["id"] for row in cached_second["rows"]] == [
            row["id"] for row in uncached_second["rows"]
        ]

    def test_statistics_panel_surfaces_cache_counters(self):
        service = _make_service()
        _run_session(service)
        response = _run_session(service)
        panel = service.statistics(response["session_id"])
        assert "result_cache_hits" in panel
        assert "coalesced_queries" in panel
        assert "result_cache_hit_rate" in panel
        cache_snapshot = panel["result_cache"]
        assert cache_snapshot is not None
        assert cache_snapshot["hits"] >= panel["result_cache_hits"]
        assert 0.0 <= cache_snapshot["hit_rate"] <= 1.0
        assert cache_snapshot["entries"] > 0

    def test_sources_share_one_cache_with_distinct_namespaces(self):
        service = _make_service()
        bluenile = service.registry.get("bluenile")
        zillow = service.registry.get("zillow")
        assert bluenile.reranker.result_cache is zillow.reranker.result_cache

        session_id = service.create_session()
        service.submit_query(
            session_id, "zillow", sliders={"price": 1.0, "squarefeet": -0.5}
        )
        cache = zillow.reranker.result_cache
        namespaces = {key[0] for key in cache._entries}
        assert "zillow" in namespaces
        assert "bluenile" not in namespaces


    def test_each_default_registry_builds_its_own_cache(self):
        first, second = _make_service(), _make_service()
        assert (
            first.registry.get("bluenile").reranker.result_cache
            is not second.registry.get("bluenile").reranker.result_cache
        )
        _run_session(first)
        assert len(first.registry.get("bluenile").reranker.result_cache) > 0
        assert len(second.registry.get("bluenile").reranker.result_cache) == 0

    def test_a_delta_retires_live_entries_and_the_panel_sums_them(self):
        service = _make_service()
        response = _run_session(service)
        cache = service.registry.get("bluenile").reranker.result_cache
        db = service.registry.get("bluenile").interface
        retired = []
        for row in db.all_matches(SearchQuery.build(ranges=FILTERS["ranges"]))[:2]:
            before = len(cache)
            summary = service.apply_delta(
                "bluenile", upserts=[{**row, "price": float(row["price"]) + 1.0}]
            )
            assert set(summary) == {
                "upserts", "deletes", "cache_entries_retired", "regions_retired",
                "feeds_retired", "delta",
            }
            assert summary["cache_entries_retired"] == before - len(cache)
            retired.append(summary)
        assert retired[0]["cache_entries_retired"] > 0

        invalidation = service.statistics(response["session_id"])["invalidation"]
        assert invalidation["deltas"] == 2
        for name in ("upserts", "deletes", "cache_entries_retired", "regions_retired",
                     "feeds_retired"):  # fmt: skip
            assert invalidation[name] == sum(summary[name] for summary in retired)
