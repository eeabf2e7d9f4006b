"""Tests for popularity-driven feed warming: the tracker's bounded head of
the distribution, and one warming pass re-leading a feed a delta retired."""

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.service.app import QR2Service
from repro.service.popular import popular_functions
from repro.service.sliders import ranking_from_sliders
from repro.service.sources import build_default_registry
from repro.service.warming import TOP_REQUESTS, FeedWarmer, PopularityTracker
from repro.webdb.query import SearchQuery

PAGES = 2  # FeedWarmer's default depth
PAGE_SIZE = 5


class TestPopularityTracker:
    def test_max_specs_evicts_the_coldest_spec(self):
        tracker = PopularityTracker(max_specs=2)
        for _ in range(3):
            tracker.record("bluenile", None, {"price": 1.0}, None, "rerank")
        tracker.record("bluenile", None, {"carat": 1.0}, None, "rerank")
        tracker.record("bluenile", None, {"depth": 1.0}, None, "rerank")
        assert tracker.snapshot() == {"observations": 5, "tracked_specs": 2}
        # The newest spec stays; of the other two the colder one went.
        assert [spec["sliders"] for spec in tracker.top(5)] == [
            {"price": 1.0},
            {"depth": 1.0},
        ]

    def test_top_filters_by_source(self):
        tracker = PopularityTracker()
        tracker.record("zillow", None, {"price": 1.0}, None, "rerank")
        tracker.record("zillow", None, {"price": 1.0}, None, "rerank")
        tracker.record("bluenile", {"ranges": {"carat": [1, 2]}}, {"price": 1.0}, None, "ta")
        assert [spec["source"] for spec in tracker.top(5)] == ["zillow", "bluenile"]
        (only,) = tracker.top(5, source="bluenile")
        assert only["algorithm"] == "ta"
        assert only["filters"] == {"ranges": {"carat": [1, 2]}}
        assert tracker.top(0) == []


class _RecordingService:
    """The public surface a warmer drives, recording each submitted spec."""

    def __init__(self):
        self.submitted = []

    def create_session(self):
        return "warm"

    def submit_query(self, session_id, source, filters, sliders, ranking, algorithm):
        self.submitted.append((source, dict(sliders)))

    def get_next_page(self, session_id):
        return {"exhausted": True}

    def close_session(self, session_id):
        pass


def test_warm_once_replays_only_the_most_popular_observed_requests():
    """Past the curated sliders (none for a custom source), one pass replays
    the ``TOP_REQUESTS`` most popular observed specs of the named sources."""
    tracker = PopularityTracker()
    for rank in range(TOP_REQUESTS + 3):
        for _ in range(TOP_REQUESTS + 3 - rank):
            tracker.record("custom", None, {f"a{rank}": 1.0}, None, "rerank")
    tracker.record("other", None, {"b": 1.0}, None, "rerank")
    service = _RecordingService()
    counters = FeedWarmer(service, tracker=tracker, pages=1).warm_once(["custom"])
    assert counters == {
        "warmed_requests": TOP_REQUESTS,
        "warmed_pages": TOP_REQUESTS,
        "skipped": 0,
    }
    assert service.submitted == [
        ("custom", {f"a{rank}": 1.0}) for rank in range(TOP_REQUESTS)
    ]


def test_warm_once_releads_a_feed_retired_by_a_delta():
    """Organic traffic → delta retires the popular feed → one warming pass →
    the next user pages as deep as the warmer (``PAGES``) at zero external
    queries, and sees what an independent recompute over the mutated catalog
    produces."""
    registry = build_default_registry(
        diamond_config=DiamondCatalogConfig(size=350, seed=8),
        housing_config=HousingCatalogConfig(size=350, seed=9),
        database_config=DatabaseConfig(
            system_k=10, latency_seconds=1.0, latency_jitter=0.0
        ),
        rerank_config=RerankConfig(),
    )
    service = QR2Service(
        registry=registry,
        config=ServiceConfig(default_page_size=PAGE_SIZE),
    )
    db = registry.get("bluenile").interface
    sliders = dict(popular_functions("bluenile")[0].sliders)

    def user_pages():
        session_id = service.create_session()
        try:
            first = service.submit_query(session_id, "bluenile", sliders=sliders)
            pages = [first["rows"]]
            for _ in range(PAGES - 1):
                pages.append(service.get_next_page(session_id)["rows"])
            return [[dict(row) for row in page] for page in pages]
        finally:
            service.close_session(session_id)

    try:
        served = user_pages()  # seeds the feed and the tracker
        # Reprice a row of the feed's prefix: its old version ranks inside
        # the prefix, so the delta retires the feed.
        key = db.schema.key
        victim = next(
            dict(row)
            for row in db.all_matches(SearchQuery.everything())
            if row[key] == served[0][0][key]
        )
        low, high = db.schema.domain_bounds("price")
        victim["price"] = min(high, float(victim["price"]) + (high - low) * 0.005)
        summary = service.apply_delta("bluenile", upserts=[victim])
        assert summary["feeds_retired"] >= 1

        warmed = service.warmer.warm_once()
        assert warmed["warmed_requests"] >= 1
        assert warmed["skipped"] == 0
        assert service.warmer.snapshot()["runs"] == 1

        checkpoint = db.queries_issued()
        pages = user_pages()
        assert db.queries_issued() == checkpoint

        oracle = QueryReranker(db, config=RerankConfig())
        stream = oracle.rerank(
            SearchQuery.everything(),
            ranking_from_sliders(sliders, db.schema),
            algorithm=Algorithm.RERANK,
        )
        expected = [
            [dict(row) for row in stream.next_page(PAGE_SIZE)] for _ in range(PAGES)
        ]
        oracle.close()
        assert pages == expected
    finally:
        service.close()
