"""Randomized differential suite for the delta-invalidation pipeline.

The delta path (:meth:`QueryReranker.apply_delta`) must be *sound* — every
page served after a catalog change is byte-identical to what a full-flush
recompute produces — and *selective* — state whose queries cannot match the
touched tuples keeps serving.  Both properties are checked here against
randomized change-sets, with the pre-existing full-flush
:meth:`QueryReranker.invalidate` acting as the correctness oracle:

* **oracle byte-identity** — after every delta, each pool request's first
  pages from the delta-invalidated reranker equal the pages a fully flushed
  reranker recomputes over the same mutated data, row for row;
* **survival** — deltas touching ≤1% of the catalog retire only overlapping
  state: aggregate survival of result-cache entries, dense regions, and
  rerank feeds stays ≥90%;
* **federated** — the same differential holds when the delta reranker runs
  over a sharded federation (rank- and attribute-partitioned) while the
  oracle recomputes over the equivalent unsharded database;
* **survivors serve** — after a delta, every result-cache entry it left in
  place still answers its query with zero external queries.
"""

from __future__ import annotations

import random

import pytest

from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.webdb.delta import CatalogDelta, merge_shard_deltas
from repro.webdb.query import RangePredicate, SearchQuery
from repro.workloads.experiments import ExperimentEnvironment

PAGE_SIZE = 10
PAGES = 2
BANDS = 8


def _environment() -> ExperimentEnvironment:
    return ExperimentEnvironment(
        catalog_scale=0.1, system_k=20, latency_seconds=0.0
    )


def _request_pool(schema):
    """Requests across disjoint price bands (plus two extra rankings), so a
    price-localized delta overlaps only a small fraction of the pool."""
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
            SearchQuery.build(ranges={"price": (low + 5 * width, low + 6 * width)}),
            by_carat,
            Algorithm.RERANK,
        )
    )
    return pool


def _first_pages(reranker: QueryReranker, request):
    query, ranking, algorithm = request
    stream = reranker.rerank(query, ranking, algorithm=algorithm)
    try:
        return [
            [dict(row) for row in stream.next_page(PAGE_SIZE)]
            for _ in range(PAGES)
        ]
    finally:
        stream.close()


def _random_localized_delta(rng: random.Random, db, sequence: int):
    """A change-set touching ≤1% of the catalog, price-localized: one row is
    repriced within a narrow window and, every other round, a near-identical
    sibling is inserted or a previously inserted row is deleted."""
    schema = db.schema
    low, high = schema.domain_bounds("price")
    rows = db.all_matches(SearchQuery.everything())
    victim = dict(rng.choice(rows))
    shift = (high - low) * 0.01 * rng.uniform(-1.0, 1.0)
    victim["price"] = min(high, max(low, float(victim["price"]) + shift))
    upserts = [victim]
    deletes = []
    if sequence % 2 == 1:
        sibling = dict(victim)
        sibling[schema.key] = f"delta-sibling-{sequence}"
        sibling["price"] = min(
            high, max(low, float(victim["price"]) + abs(shift) * 0.5)
        )
        upserts.append(sibling)
    previous = f"delta-sibling-{sequence - 1}"
    if sequence % 4 == 3 and db.has_key(previous):
        deletes.append(previous)
    return upserts, deletes


def _occupancy(reranker: QueryReranker):
    cache_entries = len(reranker.result_cache)
    feeds = len(reranker.feed_store)
    regions = int(reranker.dense_index.describe()["regions"])
    return cache_entries, feeds, regions


# --------------------------------------------------------------------- #
# CatalogDelta unit semantics
# --------------------------------------------------------------------- #
def test_delta_bounds_and_matching():
    rows = [
        {"id": "a", "price": 100.0, "carat": 1.0, "cut": "Ideal"},
        {"id": "a", "price": 140.0, "carat": 1.0, "cut": "Ideal"},
    ]
    delta = CatalogDelta.from_rows("ns", "id", rows, upserts=1)
    assert not delta.is_empty
    assert "a" in delta.keys and "b" not in delta.keys
    assert delta.numeric_values["price"] == (100.0, 140.0)
    assert delta.categorical_values["cut"] == frozenset({"Ideal"})
    hit = SearchQuery.build(ranges={"price": (120.0, 200.0)})
    miss = SearchQuery.build(ranges={"price": (200.0, 300.0)})
    assert delta.may_match_query(hit)
    assert not delta.may_match_query(miss)
    # A repriced tuple touches its old and new price, not the prices between.
    between = SearchQuery.build(ranges={"price": (110.0, 130.0)})
    assert not delta.may_match_query(between)
    # A range on an attribute no touched row carries cannot match a touched
    # tuple version, so the entry survives.
    assert not delta.may_match_query(
        SearchQuery.build(ranges={"depth": (0.0, 100.0)})
    )
    # Membership predicates use the categorical value sets.
    assert delta.may_match_query(
        SearchQuery.build(memberships={"cut": ["Ideal", "Good"]})
    )
    assert not delta.may_match_query(
        SearchQuery.build(memberships={"cut": ["Fair"]})
    )
    # Region-box intersection uses the same touched values.
    assert delta.may_intersect_bounds({"price": (130.0, 150.0)})
    assert not delta.may_intersect_bounds({"price": (141.0, 150.0)})
    assert not delta.may_intersect_bounds({"price": (110.0, 130.0)})
    assert delta.may_intersect_sides([RangePredicate("price", 90.0, 110.0)])
    assert not delta.may_intersect_sides(
        [RangePredicate("price", 100.0, 140.0, include_lower=False, include_upper=False)]
    )


def test_empty_delta_is_inert():
    delta = CatalogDelta(namespace="ns")
    assert delta.is_empty
    assert not delta.may_match_query(SearchQuery.everything())
    assert not delta.may_intersect_bounds({"price": (0.0, 1.0)})


def test_merge_shard_deltas_carries_parts():
    first = CatalogDelta.from_rows(
        "ns#0", "id", [{"id": "a", "price": 10.0}], upserts=1
    )
    second = CatalogDelta.from_rows(
        "ns#1", "id", [{"id": "b", "price": 90.0}], deletes=1
    )
    merged = merge_shard_deltas("ns", [(0, first), (1, second)])
    assert merged.numeric_values["price"] == (10.0, 90.0)
    assert merged.upserts == 1 and merged.deletes == 1
    assert [index for index, _ in merged.shard_deltas] == [0, 1]
    assert merged.keys == {"a", "b"}


# --------------------------------------------------------------------- #
# Randomized differential: unsharded
# --------------------------------------------------------------------- #
def test_randomized_differential_unsharded():
    env = _environment()
    db = env.bluenile
    subject = env.make_reranker("bluenile")
    oracle = env.make_reranker("bluenile")
    pool = _request_pool(db.schema)
    rng = random.Random(20180406)

    for request in pool:
        _first_pages(subject, request)

    total_before = [0, 0, 0]
    total_after = [0, 0, 0]
    for sequence in range(6):
        upserts, deletes = _random_localized_delta(rng, db, sequence)
        before = _occupancy(subject)
        summary = subject.apply_delta(upserts=upserts, deletes=deletes)
        after = _occupancy(subject)
        assert summary["cache_entries_retired"] == before[0] - after[0]
        for slot in range(3):
            total_before[slot] += before[slot]
            total_after[slot] += after[slot]

        # Full-flush oracle over the same (already mutated) database.
        oracle.invalidate()
        for request in pool:
            assert _first_pages(subject, request) == _first_pages(
                oracle, request
            ), f"pages diverged after delta {sequence}"

    for label, before_count, after_count in zip(
        ("cache entries", "feeds", "dense regions"), total_before, total_after
    ):
        if before_count:
            survival = after_count / before_count
            assert survival >= 0.9, (
                f"{label} survival {survival:.2%} "
                f"({after_count} of {before_count})"
            )


# --------------------------------------------------------------------- #
# Randomized differential: federated vs unsharded full-flush oracle
# --------------------------------------------------------------------- #
#: Seed 15568 reprices rows across many cached price intervals: a delta that
#: flagged every interval between a row's old and new price (their hull)
#: would keep only 168 of the 188 price-sharded entries (0.894).
@pytest.mark.parametrize("seed", [15568, 19536])
@pytest.mark.parametrize("shard_by", ["rank", "price"])
def test_randomized_differential_federated(shard_by, seed):
    env = _environment()
    subject = env.make_federated_reranker("bluenile", 3, by=shard_by)
    oracle = env.make_reranker("bluenile")
    federation = subject.interface
    pool = _request_pool(federation.schema)
    rng = random.Random(seed)

    for request in pool[: BANDS // 2 + 1]:
        _first_pages(subject, request)

    total_before = [0, 0, 0]
    total_after = [0, 0, 0]
    for sequence in range(4):
        upserts, deletes = _random_localized_delta(rng, env.bluenile, sequence)
        before = _occupancy(subject)
        summary = subject.apply_delta(upserts=upserts, deletes=deletes)
        after = _occupancy(subject)
        delta = summary["delta"]
        assert delta.shard_deltas, "federated delta must carry shard parts"
        # Mirror the mutation into the oracle's unsharded database and flush.
        env.bluenile.apply_delta(upserts=upserts, deletes=deletes)
        oracle.invalidate()
        for slot in range(3):
            total_before[slot] += before[slot]
            total_after[slot] += after[slot]
        for request in pool[: BANDS // 2 + 1]:
            assert _first_pages(subject, request) == _first_pages(
                oracle, request
            ), f"federated pages diverged after delta {sequence} ({shard_by})"

    if total_before[0]:
        assert total_after[0] / total_before[0] >= 0.9


# --------------------------------------------------------------------- #
# Survivors keep serving
# --------------------------------------------------------------------- #
def test_surviving_entries_serve_after_a_delta():
    env = _environment()
    db = env.bluenile
    subject = env.make_reranker("bluenile")
    pool = _request_pool(db.schema)
    for request in pool:
        _first_pages(subject, request)

    cache = subject.result_cache
    before = len(cache)
    low, high = db.schema.domain_bounds("price")
    victim = dict(db.all_matches(SearchQuery.everything())[0])
    victim["price"] = min(high, float(victim["price"]) + (high - low) * 0.005)
    summary = subject.apply_delta(upserts=[victim])
    survivors = list(cache._entries.items())
    assert summary["cache_entries_retired"] == before - len(survivors)
    assert summary["cache_entries_retired"], "the delta should retire at least one entry"
    assert survivors, "the delta should leave entries in place"

    # Every surviving entry answers from the cache with zero external
    # queries: the compute path must never run.
    def forbidden():
        raise AssertionError("a surviving entry must not issue external queries")

    for (namespace, system_k, _), result in survivors:
        replay, status = cache.fetch(
            namespace, result.query, system_k, compute=forbidden
        )
        assert status.name in ("HIT", "CONTAINED")
        assert [dict(row) for row in replay.rows] == [
            dict(row) for row in result.rows
        ]


# --------------------------------------------------------------------- #
# In-flight stores racing a delta
# --------------------------------------------------------------------- #
def test_delta_blocks_overlapping_inflight_store():
    env = _environment()
    db = env.bluenile
    subject = env.make_reranker("bluenile")
    cache = subject.result_cache
    namespace = "bluenile"
    query = SearchQuery.build(ranges={"price": (300.0, 2000.0)})

    def compute_and_mutate():
        result = db.search(query)
        low, high = db.schema.domain_bounds("price")
        victim = dict(db.all_matches(SearchQuery.everything())[0])
        victim["price"] = (low + high) / 2.0
        delta = db.apply_delta(upserts=[victim])
        cache.invalidate_delta(namespace, delta)
        return result

    cache.fetch(namespace, query, db.system_k, compute=compute_and_mutate)
    # The store raced a delta whose hull overlaps the query: it must have
    # been blocked, leaving the cache empty for this namespace.
    assert not [key for key in cache._entries if key[0] == namespace]
    assert cache.statistics.snapshot()["delta_blocked_stores"] >= 1
