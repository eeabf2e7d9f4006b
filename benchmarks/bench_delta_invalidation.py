"""SC-DELTA — selective invalidation after catalog change-sets, plus warming.

PR 8 threads structured catalog deltas (:class:`CatalogDelta`) through every
caching layer, so a small change retires only the derived state it could have
perturbed instead of flushing the world.  This bench measures both halves of
the story on a warmed reranker:

* **SURVIVAL** — after a change-set touching ~1% of the catalog (price-
  localized, the common "a few listings were repriced" case), at least 90% of
  result-cache entries and rerank feeds must keep serving, while every page
  served afterwards stays byte-identical to a full-flush recompute over the
  same mutated data (the pre-existing ``invalidate()`` is the oracle);
* **WARMING** — after a delta retires a popular feed, one pass of the
  popularity-driven :class:`FeedWarmer` must re-lead it so the next user
  request replays its warmed pages with **zero** external queries, again
  byte-identical to an independent recompute.

The correctness gates (byte-identity, survival floors, zero post-warm
queries) always run; ``--bench-quick`` shrinks the workload for CI.
"""

from __future__ import annotations

import pytest

from benchmarks._tables import print_table
from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.service.app import QR2Service
from repro.service.popular import popular_functions
from repro.service.sliders import ranking_from_sliders
from repro.service.sources import build_default_registry
from repro.webdb.query import SearchQuery
from repro.workloads.experiments import ExperimentEnvironment

PAGE_SIZE = 10
PAGES = 2
#: Disjoint price bands in the request pool; the delta is confined to one.
BANDS = 12
#: Fraction of the catalog a change-set touches.
DELTA_FRACTION = 0.01
MIN_SURVIVAL = 0.9


def _request_pool(schema):
    """Requests across disjoint price bands plus two extra rankings."""
    low, high = schema.domain_bounds("price")
    width = (high - low) / BANDS
    by_price = SingleAttributeRanking("price", ascending=True)
    by_carat = SingleAttributeRanking("carat", ascending=False)
    linear = LinearRankingFunction(
        {"price": 1.0, "carat": -0.5},
        normalizer=MinMaxNormalizer.from_schema(schema, ["price", "carat"]),
    )
    pool = []
    for band in range(BANDS):
        query = SearchQuery.build(
            ranges={"price": (low + band * width, low + (band + 1) * width)}
        )
        pool.append((query, by_price, Algorithm.RERANK))
    pool.append(
        (
            SearchQuery.build(ranges={"price": (low + width, low + 2 * width)}),
            linear,
            Algorithm.RERANK,
        )
    )
    pool.append(
        (
            SearchQuery.build(ranges={"price": (low + 8 * width, low + 9 * width)}),
            by_carat,
            Algorithm.RERANK,
        )
    )
    return pool


def _serve_pool(reranker: QueryReranker, pool):
    pages = []
    for query, ranking, algorithm in pool:
        stream = reranker.rerank(query, ranking, algorithm=algorithm)
        try:
            pages.append(
                [
                    [dict(row) for row in stream.next_page(PAGE_SIZE)]
                    for _ in range(PAGES)
                ]
            )
        finally:
            stream.close()
    return pages


def _localized_delta(db, sequence: int):
    """A change-set repricing ~1% of the catalog in its densest price cluster.

    The victims are the ``touched`` adjacent-by-price rows with the smallest
    price span, so the delta's hull (old + new versions) stays a few price
    units wide — the honest version of "a batch of near-identical listings
    was repriced"."""
    schema = db.schema
    low, high = schema.domain_bounds("price")
    rows = sorted(
        db.all_matches(SearchQuery.everything()),
        key=lambda row: float(row["price"]),
    )
    touched = max(1, round(len(rows) * DELTA_FRACTION))
    start = min(
        range(len(rows) - touched + 1),
        key=lambda i: float(rows[i + touched - 1]["price"])
        - float(rows[i]["price"]),
    )
    victims = rows[start : start + touched]
    shift = (high - low) * 0.0005 * (1 if sequence % 2 == 0 else -1)
    upserts = []
    for row in victims:
        repriced = dict(row)
        repriced["price"] = min(high, max(low, float(row["price"]) + shift))
        upserts.append(repriced)
    deletes = []
    previous = f"bench-delta-{sequence - 1}"
    if db.has_key(previous):
        deletes.append(previous)
    if sequence % 2 == 1:
        sibling = dict(victims[0])
        sibling[schema.key] = f"bench-delta-{sequence}"
        upserts.append(sibling)
    return upserts, deletes, len(victims)


def _occupancy(reranker: QueryReranker):
    return (
        len(reranker.result_cache.export_snapshot()[0]),
        len(reranker.feed_store),
        int(reranker.dense_index.describe()["regions"]),
    )


@pytest.mark.benchmark(group="delta-invalidation")
def test_delta_survival_and_oracle_identity(benchmark, bench_scale, bench_quick):
    """A ~1% price-localized delta must retire <10% of cached state while
    every page served afterwards equals a full-flush recompute."""
    rounds = 2 if bench_quick else 3
    # Private environment: this bench mutates the catalog, so it must not
    # share the session-scoped ``environment`` fixture with other benches.
    env = ExperimentEnvironment(
        catalog_scale=bench_scale, system_k=20, latency_seconds=1.0
    )
    db = env.bluenile
    subject = env.make_reranker("bluenile")
    oracle = env.make_reranker("bluenile")
    pool = _request_pool(db.schema)

    def run():
        _serve_pool(subject, pool)  # warm every layer
        totals = {
            "before": [0, 0, 0],
            "after": [0, 0, 0],
            "touched": 0,
            "subject_queries": 0,
            "oracle_queries": 0,
            "rounds": rounds,
            "pages_match": True,
        }
        for sequence in range(rounds):
            upserts, deletes, touched = _localized_delta(db, sequence)
            before = _occupancy(subject)
            subject.apply_delta(upserts=upserts, deletes=deletes)
            after = _occupancy(subject)
            oracle.invalidate()
            for slot in range(3):
                totals["before"][slot] += before[slot]
                totals["after"][slot] += after[slot]
            totals["touched"] += touched
            checkpoint = db.queries_issued()
            subject_pages = _serve_pool(subject, pool)
            totals["subject_queries"] += db.queries_issued() - checkpoint
            checkpoint = db.queries_issued()
            oracle_pages = _serve_pool(oracle, pool)
            totals["oracle_queries"] += db.queries_issued() - checkpoint
            totals["pages_match"] &= subject_pages == oracle_pages
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    labels = ("cache entries", "feeds", "dense regions")
    survival = {
        label: (totals["after"][slot] / totals["before"][slot])
        if totals["before"][slot]
        else None
        for slot, label in enumerate(labels)
    }
    catalog_size = len(db.all_matches(SearchQuery.everything()))
    rows = [
        f"{'catalog':>14s} {catalog_size:>6d} tuples, "
        f"{totals['touched']} touched over {totals['rounds']} deltas",
    ]
    for slot, label in enumerate(labels):
        rate = survival[label]
        rows.append(
            f"{label:>14s} {totals['before'][slot]:>6d} -> "
            f"{totals['after'][slot]:>4d}  "
            + (f"({rate:.1%} survival)" if rate is not None else "(none built)")
        )
    rows.append(
        f"{'re-serve cost':>14s} delta={totals['subject_queries']} vs "
        f"full-flush={totals['oracle_queries']} external queries"
    )
    print_table(
        "SC-DELTA — selective invalidation after ~1% catalog deltas",
        "warmed pool of banded requests; full-flush invalidate() as oracle",
        rows,
    )
    benchmark.extra_info.update(
        {
            "touched_tuples": totals["touched"],
            "pages_match": totals["pages_match"],
            "subject_queries": totals["subject_queries"],
            "oracle_queries": totals["oracle_queries"],
            **{
                f"{label.replace(' ', '_')}_survival": round(rate, 4)
                for label, rate in survival.items()
                if rate is not None
            },
        }
    )
    # Correctness gates: always enforced.
    assert totals["pages_match"], "delta-invalidated pages diverged from oracle"
    for label in ("cache entries", "feeds"):
        rate = survival[label]
        assert rate is not None and rate >= MIN_SURVIVAL, (
            f"{label} survival {rate} below {MIN_SURVIVAL:.0%}"
        )
    if survival["dense regions"] is not None:
        assert survival["dense regions"] >= MIN_SURVIVAL
    # Selective retirement must never cost more round trips than a flush.
    assert totals["subject_queries"] <= totals["oracle_queries"]


@pytest.mark.benchmark(group="delta-invalidation")
def test_warmer_preleads_retired_popular_feed(benchmark, bench_quick):
    """After a delta retires a popular feed, one warming pass must re-lead it
    so the next user request replays warmed pages at zero external queries."""
    size = 350 if bench_quick else 700
    registry = build_default_registry(
        diamond_config=DiamondCatalogConfig(size=size, seed=8),
        housing_config=HousingCatalogConfig(size=size, seed=9),
        database_config=DatabaseConfig(
            system_k=10, latency_seconds=1.0, latency_jitter=0.0
        ),
        rerank_config=RerankConfig(),
    )
    service = QR2Service(
        registry=registry,
        config=ServiceConfig(default_page_size=5, warming_pages=PAGES),
    )
    db = registry.get("bluenile").interface
    sliders = dict(popular_functions("bluenile")[0].sliders)

    def user_pages():
        """One user session paging through the popular function."""
        session_id = service.create_session()
        try:
            first = service.submit_query(session_id, "bluenile", sliders=sliders)
            pages = [[dict(row) for row in first["rows"]]]
            for _ in range(PAGES - 1):
                pages.append(
                    [
                        dict(row)
                        for row in service.get_next_page(session_id)["rows"]
                    ]
                )
            return pages
        finally:
            service.close_session(session_id)

    def run():
        user_pages()  # organic traffic seeds the feed and the tracker
        victim = dict(db.all_matches(SearchQuery.everything())[0])
        low, high = db.schema.domain_bounds("price")
        victim["price"] = min(high, float(victim["price"]) + (high - low) * 0.005)
        summary = service.apply_delta("bluenile", upserts=[victim])
        warmed = service.warmer.warm_once()
        checkpoint = db.queries_issued()
        pages = user_pages()
        return {
            "feeds_retired": int(summary["feeds_retired"]),
            "warmed_requests": warmed["warmed_requests"],
            "warmed_pages": warmed["warmed_pages"],
            "post_warm_queries": db.queries_issued() - checkpoint,
            "pages": pages,
        }

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    # Oracle: an independent reranker recomputes the popular ranking over the
    # same (mutated) catalog from scratch.
    oracle = QueryReranker(db, config=RerankConfig())
    ranking = ranking_from_sliders(sliders, db.schema)
    stream = oracle.rerank(
        SearchQuery.everything(), ranking, algorithm=Algorithm.RERANK
    )
    try:
        expected = [
            [dict(row) for row in stream.next_page(5)] for _ in range(PAGES)
        ]
    finally:
        stream.close()
    pages_match = payload["pages"] == expected
    print_table(
        "SC-WARM — popularity-driven warming after a delta",
        "popular bluenile function; FeedWarmer.warm_once() between delta and user",
        [
            f"{'feeds retired':>16s} {payload['feeds_retired']}",
            f"{'warmed':>16s} {payload['warmed_requests']} requests / "
            f"{payload['warmed_pages']} pages",
            f"{'user queries':>16s} {payload['post_warm_queries']} "
            f"(post-warm, {PAGES} pages)",
            f"{'pages match':>16s} {pages_match}",
        ],
    )
    benchmark.extra_info.update(
        {
            "feeds_retired": payload["feeds_retired"],
            "warmed_requests": payload["warmed_requests"],
            "warmed_pages": payload["warmed_pages"],
            "post_warm_queries": payload["post_warm_queries"],
            "pages_match": pages_match,
        }
    )
    # Correctness gates: always enforced.
    assert payload["feeds_retired"] >= 1, "the delta should retire the feed"
    assert payload["warmed_requests"] >= 1
    assert payload["post_warm_queries"] == 0, (
        "a warmed popular request must replay without external queries"
    )
    assert pages_match, "warmed pages diverged from an independent recompute"
