"""Randomized differential suite for the delta-invalidation pipeline.

The delta path (:meth:`QueryReranker.apply_delta`) must be *sound* — every
page served after a catalog change is byte-identical to what a cold
recompute produces — and *selective* — state whose queries cannot match the
touched tuples keeps serving.  Both properties are checked here against
randomized change-sets, with a freshly built reranker over the same mutated
source (new result cache, dense index and feed store) as the correctness
oracle:

* **oracle byte-identity** — after every delta, each pool request's first
  pages from the delta-invalidated reranker equal the pages a fresh
  reranker computes over the same mutated data, row for row;
* **survival** — deltas touching ≤1% of the catalog retire only overlapping
  state: aggregate survival of result-cache entries, dense regions, and
  rerank feeds stays ≥90%;
* **federated** — the same differential holds when the delta reranker runs
  over a sharded federation (rank- and attribute-partitioned) while the
  oracle recomputes over the equivalent unsharded database;
* **survivors serve** — after a delta, every result-cache entry it left in
  place still answers its query with zero external queries;
* **exact versions** — a query, cache entry or dense box is flagged only
  when one single touched version satisfies all of its predicates;
* **dense regions read the cache** — a registered box whose crawl entries
  were evicted pays queries on its next read and stays right; a delta inside
  the box retires it with its entries, one outside it leaves the next read
  at zero queries;
* **feeds past their prefix** — a feed whose matching touched versions all
  rank after its last verified row keeps its prefix, and streams reading
  past it still equal the fresh oracle.
"""

from __future__ import annotations

import itertools
import random
import threading

import pytest

from repro.config import RerankConfig
from repro.core.dense_index import DenseRegionIndex, dense_rows
from repro.core.feed import FeedProducer, RerankFeedStore
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm, QueryReranker
from repro.core.session import Session
from repro.webdb.cache import QueryResultCache
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.delta import CatalogDelta, merge_shard_deltas
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from repro.workloads.experiments import ExperimentEnvironment
from tests.conftest import assert_matches_ground_truth

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
    assert delta.versions == tuple(rows)
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
    # Membership predicates are decided on the versions.
    assert delta.may_match_query(
        SearchQuery.build(memberships={"cut": ["Ideal", "Good"]})
    )
    assert not delta.may_match_query(
        SearchQuery.build(memberships={"cut": ["Fair"]})
    )
    # A dense region is a box of ranges, decided by the same test.
    assert delta.may_match_query(SearchQuery.build(ranges={"price": (130.0, 150.0)}))
    assert not delta.may_match_query(SearchQuery.build(ranges={"price": (141.0, 150.0)}))
    assert not delta.may_match_query(SearchQuery.build(ranges={"price": (110.0, 130.0)}))
    assert delta.may_match_query(SearchQuery((RangePredicate("price", 90.0, 110.0),)))
    assert not delta.may_match_query(
        SearchQuery((RangePredicate("price", 100.0, 140.0, False, False),))
    )


def test_empty_delta_is_inert():
    delta = CatalogDelta(namespace="ns")
    assert delta.is_empty
    assert not delta.may_match_query(SearchQuery.everything())
    assert not delta.may_match_query(SearchQuery.build(ranges={"price": (0.0, 1.0)}))


def test_merge_shard_deltas_carries_parts():
    first = CatalogDelta.from_rows(
        "ns#0", "id", [{"id": "a", "price": 10.0}], upserts=1
    )
    second = CatalogDelta.from_rows(
        "ns#1", "id", [{"id": "b", "price": 90.0}], deletes=1
    )
    merged = merge_shard_deltas("ns", [(0, first), (1, second)])
    assert [row["price"] for row in merged.versions] == [10.0, 90.0]
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
    pool = _request_pool(db.schema)
    rng = random.Random(20180406)

    for request in pool:
        _first_pages(subject, request)

    total_before = [0, 0, 0]
    total_after = [0, 0, 0]
    for sequence in range(6):
        upserts, deletes = _random_localized_delta(rng, db, sequence)
        before = _occupancy(subject)
        summary = subject.apply_delta(db.apply_delta(upserts=upserts, deletes=deletes))
        after = _occupancy(subject)
        assert summary["cache_entries_retired"] == before[0] - after[0]
        for slot in range(3):
            total_before[slot] += before[slot]
            total_after[slot] += after[slot]

        # A fresh oracle over the same (already mutated) database.
        oracle = env.make_reranker("bluenile")
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
# Randomized differential: federated vs a fresh unsharded oracle
# --------------------------------------------------------------------- #
#: Seed 15568 reprices rows across many cached price intervals: a delta that
#: flagged every interval between a row's old and new price (their hull)
#: would keep only 168 of the 188 price-sharded entries (0.894).
@pytest.mark.parametrize("seed", [15568, 19536])
@pytest.mark.parametrize("shard_by", ["rank", "price"])
def test_randomized_differential_federated(shard_by, seed):
    env = _environment()
    subject = env.make_federated_reranker("bluenile", 3, by=shard_by)
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
        summary = subject.apply_delta(federation.apply_delta(upserts=upserts, deletes=deletes))
        after = _occupancy(subject)
        delta = summary["delta"]
        assert delta.shard_deltas, "federated delta must carry shard parts"
        # Mirror the mutation into the unsharded database; a fresh oracle
        # reads it.
        env.bluenile.apply_delta(upserts=upserts, deletes=deletes)
        oracle = env.make_reranker("bluenile")
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
    summary = subject.apply_delta(db.apply_delta(upserts=[victim]))
    survivors = list(cache._entries.items())
    assert summary["cache_entries_retired"] == before - len(survivors)
    assert summary["cache_entries_retired"], "the delta should retire at least one entry"
    assert survivors, "the delta should leave entries in place"

    # Every surviving entry answers from the cache with zero external
    # queries: the compute path must never run.
    def forbidden():
        raise AssertionError("a surviving entry must not issue external queries")

    for (namespace, system_k, key), result in survivors:
        if len(key) == 3:
            # A coalesced region is no query's exact entry: the probe's
            # containment walk serves the box it covers (or the site's own
            # answer to that box, an exact hit), rows as a set.
            replay, status = cache.probe(namespace, result.query, system_k)
            assert status.name in ("HIT", "CONTAINED")
            if status.name == "CONTAINED":
                assert {row["id"] for row in replay.observed_rows} == {
                    row["id"] for row in result.observed_rows
                }
            continue
        replay, status = cache.fetch(
            namespace, result.query, system_k, compute=forbidden
        )
        assert status.name == "HIT"
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


# --------------------------------------------------------------------- #
# Exact matching: one version must satisfy every predicate
# --------------------------------------------------------------------- #
def test_versions_that_each_satisfy_one_predicate_flag_nothing(
    bluenile_db, diamond_schema_fixture
):
    """A tuple repriced from (1 000, 1.0 ct, ideal) to (5 000, 3.0 ct, good):
    its old version satisfies only the price side of ``crossed`` and its new
    version only the carat side, so neither version lies in the box."""
    old = {"id": "x", "price": 1000.0, "carat": 1.0, "cut": "ideal"}
    new = {"id": "x", "price": 5000.0, "carat": 3.0, "cut": "good"}
    delta = CatalogDelta.from_rows("ns", "id", [old, new], upserts=1)
    crossed = {"price": (900.0, 1100.0), "carat": (2.5, 3.5)}
    query = SearchQuery.build(ranges=crossed)
    assert not delta.may_match_query(query)
    assert not delta.may_match_query(
        SearchQuery.build(ranges={"price": (900.0, 1100.0)}, memberships={"cut": ["good"]})
    )
    for attribute, bounds in crossed.items():
        assert delta.may_match_query(SearchQuery.build(ranges={attribute: bounds}))

    cache = QueryResultCache()
    cache.fetch("ns", query, bluenile_db.system_k, lambda: bluenile_db.search(query))
    assert cache.invalidate_delta("ns", delta) == 0
    assert cache.probe("ns", query, bluenile_db.system_k) is not None

    index = DenseRegionIndex(cache, "ns")
    index.add_region(query, [], bluenile_db.system_k)
    assert index.invalidate_delta(delta) == 0
    assert index.lookup(query) is not None


# --------------------------------------------------------------------- #
# Dense regions: the registry's rows are the result cache's entries
# --------------------------------------------------------------------- #
CLUSTER = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
BY_RATIO = SingleAttributeRanking("length_width_ratio", ascending=True)
ROUND = SearchQuery.build(ranges={"length_width_ratio": (1.0, 1.0)})


def _cluster_reranker(catalog, schema, cache):
    """A private database (the tests change it) and a reranker over
    ``cache`` with the feed off, so a repeat runs the algorithm."""
    database = HiddenWebDatabase(
        catalog, schema, FeaturedScoreRanking("price", boost_weight=2500.0), system_k=10
    )
    config = RerankConfig(enable_rerank_feed=False)
    return database, QueryReranker(database, config=config, result_cache=cache)


def _cluster_page(reranker, database):
    """Read past the round-stone cluster, whose value group is crawled;
    the page must equal the brute-force ranking.  Returns its statistics."""
    stream = reranker.rerank(CLUSTER, BY_RATIO, Algorithm.RERANK)
    rows = stream.top(database.system_k + 5)
    truth = database.true_ranking(CLUSTER, BY_RATIO.score, limit=len(rows))
    assert_matches_ground_truth(rows, truth, BY_RATIO)
    return stream.statistics


def test_an_evicted_region_makes_a_dense_read_pay_and_stay_right(
    diamond_catalog, diamond_schema_fixture
):
    """The LRU evicts a region entry like any other: the next dense read
    crawls the box again, pays, and its page is still the oracle's."""
    cache = QueryResultCache(max_entries=4)
    database, reranker = _cluster_reranker(diamond_catalog, diamond_schema_fixture, cache)
    cold = _cluster_page(reranker, database)
    assert cold.dense_regions_built >= 1 and cache.statistics.evictions > 0
    assert reranker.dense_index.lookup(ROUND) is not None
    for price in range(4):
        other = SearchQuery.build(ranges={"price": (float(price), float(price))})
        cache.store("elsewhere", other, database.system_k, database.search(other))
    assert reranker.dense_index.lookup(ROUND) is None
    warm = _cluster_page(reranker, database)
    assert warm.dense_regions_built >= 1 and warm.external_queries > 0


def test_a_delta_retires_a_dense_box_with_its_entries_and_spares_the_rest(
    diamond_catalog, diamond_schema_fixture
):
    cache = QueryResultCache()
    database, reranker = _cluster_reranker(diamond_catalog, diamond_schema_fixture, cache)
    _cluster_page(reranker, database)
    box = reranker.dense_index.lookup(ROUND)
    assert box is not None

    # A repriced stone outside the box: the box and its entries serve on.
    elongated = SearchQuery.build(ranges={"length_width_ratio": (1.3, 3.0)})
    outside = dict(database.all_matches(elongated)[0])
    outside["price"] += 1.0
    summary = reranker.apply_delta(database.apply_delta(upserts=[outside]))
    assert summary["regions_retired"] == 0
    warm = _cluster_page(reranker, database)
    assert warm.dense_index_hits >= 1 and warm.external_queries == 0

    # A repriced stone inside it: the box goes, and so do its crawl's
    # entries, so crawling it again pays and reads the new version.
    changed = dict(database.all_matches(box)[0])
    changed["price"] += 1.0
    summary = reranker.apply_delta(database.apply_delta(upserts=[changed]))
    assert summary["regions_retired"] >= 1 and reranker.dense_index.lookup(box) is None
    engine = QueryEngine(database, result_cache=cache)
    rows, _ = dense_rows(
        engine, engine.statistics, reranker.dense_index, box, SearchQuery.everything()
    )
    assert engine.queries_issued() > 0
    assert sorted(map(dict, rows), key=lambda row: row["id"]) == sorted(
        map(dict, database.all_matches(box)), key=lambda row: row["id"]
    )
    assert changed in [dict(row) for row in rows]
    assert reranker.dense_index.lookup(box) == box


# --------------------------------------------------------------------- #
# Feed survival: a delta retires only a feed whose prefix it reaches
# --------------------------------------------------------------------- #
BY_PRICE = SingleAttributeRanking("price", ascending=True)


def _lead(reranker, query, ranking=BY_PRICE, pages=2, algorithm=Algorithm.RERANK):
    """Lead a feed ``pages`` deep; returns the open stream and its rows."""
    stream = reranker.rerank(query, ranking, algorithm=algorithm)
    rows = [[dict(row) for row in stream.next_page(PAGE_SIZE)] for _ in range(pages)]
    return stream, rows


def _read(reranker, query, ranking=BY_PRICE, pages=2, algorithm=Algorithm.RERANK):
    stream, rows = _lead(reranker, query, ranking, pages, algorithm)
    stream.close()
    return rows


def _catalog_row(db, key):
    return next(
        dict(row)
        for row in db.all_matches(SearchQuery.everything())
        if row[db.schema.key] == key
    )


def _dearest(db):
    return dict(max(db.all_matches(SearchQuery.everything()), key=lambda row: row["price"]))


def test_a_version_ranked_after_the_prefix_keeps_the_feed_and_its_free_replay():
    env = _environment()
    db = env.bluenile
    subject = env.make_reranker("bluenile")
    query = SearchQuery.everything()
    leader, pages = _lead(subject, query)
    last = pages[-1][-1]["price"]
    victim = _dearest(db)
    victim["price"] = last + 1e-6  # ranks after the last verified row
    summary = subject.apply_delta(db.apply_delta(upserts=[victim]))
    assert summary["feeds_retired"] == 0

    follower = subject.rerank(query, BY_PRICE)
    assert follower.feed is leader.feed
    checkpoint = db.queries_issued()
    replay = [[dict(row) for row in follower.next_page(PAGE_SIZE)] for _ in range(2)]
    assert db.queries_issued() == checkpoint
    assert replay == pages
    # Past the prefix the producer continues from its frontier.
    beyond = [dict(row) for row in follower.next_page(PAGE_SIZE)]
    follower.close()
    leader.close()
    assert [pages[0], pages[1], beyond] == _read(env.make_reranker("bluenile"), query, pages=3)
    assert beyond[0]["id"] == victim["id"]


def _retiring_version(db, pages, case):
    """An upsert that reaches a two-page price-ordered prefix."""
    last = pages[-1][-1]["price"]
    if case == "tie":
        victim = _dearest(db)
        victim["price"] = last + 5e-10  # within 1e-9 of the last row
    else:  # an old version inside the prefix; the new one ranks after it
        victim = _catalog_row(db, pages[0][3]["id"])
        victim["price"] = _dearest(db)["price"]
    return victim


@pytest.mark.parametrize("case", ["tie", "old_version_in_prefix"])
def test_a_version_at_or_before_the_last_row_retires_the_feed(case):
    env = _environment()
    db = env.bluenile
    subject = env.make_reranker("bluenile")
    query = SearchQuery.everything()
    leader, pages = _lead(subject, query)
    summary = subject.apply_delta(db.apply_delta(upserts=[_retiring_version(db, pages, case)]))
    assert summary["feeds_retired"] == 1
    assert leader.feed.stale
    leader.close()
    fresh = subject.rerank(query, BY_PRICE)
    assert fresh.feed is not leader.feed
    fresh.close()
    assert _read(subject, query, pages=3) == _read(
        env.make_reranker("bluenile"), query, pages=3
    )


def test_an_exhausted_feed_is_retired_by_a_matching_version_after_it():
    env = _environment()
    db = env.bluenile
    subject = env.make_reranker("bluenile")
    low = min(float(row["price"]) for row in db.all_matches(SearchQuery.everything()))
    query = SearchQuery.build(ranges={"price": (low, low + 200.0)})
    leader, pages = _lead(subject, query, pages=3)
    assert leader.feed.exhausted and len(pages[-1]) < PAGE_SIZE
    newcomer = dict(_dearest(db), id="delta-newcomer", price=low + 199.0)
    assert subject.apply_delta(db.apply_delta(upserts=[newcomer]))["feeds_retired"] == 1
    leader.close()
    rows = [row for page in _read(subject, query, pages=3) for row in page]
    assert rows[-1]["id"] == "delta-newcomer"


def test_a_feed_mid_advance_is_retired_and_an_idle_one_kept():
    """The same delta — one version ranking after the prefix — keeps the feed
    while it is idle and retires it while a leader is inside an advance,
    whose row may rest on proofs made before the change."""
    store = RerankFeedStore()
    entered, release = threading.Event(), threading.Event()
    calls = itertools.count()
    rows = iter([{"id": 0, "carat": 0.0}, {"id": 1, "carat": 1.0}])

    class _Algorithm:
        def next(self):
            if next(calls) == 1:
                entered.set()
                assert release.wait(10)
            return next(rows, None)

    ranking = SingleAttributeRanking("carat")
    feed = store.attach(
        "ns",
        SearchQuery.build(ranges={"carat": (0.0, 10.0)}),
        ranking,
        "rerank",
        10,
        "id",
        lambda: FeedProducer(_Algorithm(), Session(session_id="fake")),
    )
    assert feed.row_at(0)[0]["id"] == 0
    after = CatalogDelta.from_rows("ns", "id", [{"id": 9, "carat": 5.0}], upserts=1)
    assert store.invalidate_delta("ns", after) == 0
    advance = threading.Thread(target=feed.row_at, args=(1,))
    advance.start()
    try:
        assert entered.wait(10)
        assert store.invalidate_delta("ns", after) == 1
    finally:
        release.set()
        advance.join(10)
    assert feed.stale and len(store) == 0
    assert store.snapshot()["delta_invalidations"] == 1


# --------------------------------------------------------------------- #
# Differential: reading past a surviving prefix
# --------------------------------------------------------------------- #
REPRICED = 30


def _deep_requests(schema):
    """1D, 2D, 3D and TA requests with how many pages each leads."""

    def linear(weights):
        return LinearRankingFunction(
            weights, normalizer=MinMaxNormalizer.from_schema(schema, list(weights))
        )

    carats = SearchQuery.build(ranges={"carat": (0.4, 3.0)})
    return [
        (carats, BY_PRICE, Algorithm.RERANK, 1),
        (carats, linear({"price": 1.0, "carat": -0.5}), Algorithm.RERANK, 2),
        (
            SearchQuery.everything(),
            linear({"price": 1.0, "carat": -0.5, "depth": 0.3}),
            Algorithm.BINARY,
            3,
        ),
        (SearchQuery.everything(), linear({"price": 1.0, "carat": -1.0}), Algorithm.TA, 2),
    ]


def _band_repricing(rng: random.Random, db):
    """About ``REPRICED`` rows contiguous by price, each repriced by one
    factor (the churn benchmark's delta shape)."""
    low, high = db.schema.domain_bounds("price")
    rows = sorted(db.all_matches(SearchQuery.everything()), key=lambda row: row["price"])
    start = rng.randrange(len(rows) - REPRICED)
    factor = rng.uniform(0.7, 1.4)
    return [
        dict(row, price=round(min(high, max(low, float(row["price"]) * factor)), 2))
        for row in rows[start : start + REPRICED]
    ]


@pytest.mark.parametrize("seed", [3, 11, 29])
@pytest.mark.parametrize("shards", [None, 3])
def test_reading_past_a_surviving_prefix_equals_the_oracle(shards, seed):
    env = _environment()
    subject = (
        env.make_reranker("bluenile")
        if shards is None
        else env.make_federated_reranker("bluenile", shards, by="rank")
    )
    rng = random.Random(seed)
    requests = _deep_requests(env.bluenile.schema)
    leaders = [_lead(subject, query, ranking, depth, algorithm) for query, ranking, algorithm, depth in requests]

    upserts = _band_repricing(rng, env.bluenile)
    site = env.bluenile if shards is None else subject.federation
    subject.apply_delta(site.apply_delta(upserts=upserts))
    if shards is not None:
        env.bluenile.apply_delta(upserts=upserts)
    oracle = env.make_reranker("bluenile")

    survived = 0
    for (query, ranking, algorithm, depth), (stream, pages) in zip(requests, leaders):
        expected = _read(oracle, query, ranking, 5, algorithm)
        if not stream.feed.stale:
            survived += 1
            assert pages == expected[:depth]
            for position in range(depth, 5):
                assert [dict(row) for row in stream.next_page(PAGE_SIZE)] == expected[position]
        stream.close()
        assert _read(subject, query, ranking, 5, algorithm) == expected
    assert survived, "the delta should leave at least one feed in place"
