"""Coalesced regions: abutting proving answers reassemble the box they tile.

A descent splits an overflowing box into halves until every leaf proves its
own box.  ``QueryResultCache`` stores each leaf's answer; when a stored
proving answer abuts another on one attribute (the same memberships, the same
range on every other attribute, complementary inclusivity where they meet),
their union is stored as a *region entry*, which coalesces in turn.  The
containment walk then answers any query inside a region.  These tests pin
what a region may answer (exactly the database's rows and outcome), what it
must never do (shadow the site's own answer, survive a delta that reaches a
leaf, form from degraded or federated answers) and that its side index is
cleaned with the entries it indexes.
"""

import random
import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DatabaseConfig
from repro.core.functions import SingleAttributeRanking
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm, QueryReranker
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.dataset.schema import Attribute, Schema
from repro.webdb.build import build_source
from repro.webdb.cache import FetchStatus, QueryResultCache
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery
from repro.webdb.ranking import AttributeOrderRanking

SCHEMA = Schema(
    key="id",
    attributes=(
        Attribute.numeric("x", 0, 100),
        Attribute.numeric("y", 0, 100),
        Attribute.categorical("kind", ["a", "b"]),
    ),
)
RANKING = AttributeOrderRanking("y")
SYSTEM_K = 4


def _catalog(size=60, seed=5):
    rng = random.Random(seed)
    return [
        {"id": f"t{i}", "x": round(rng.uniform(0, 100), 2), "y": round(rng.uniform(0, 100), 2),
         "kind": rng.choice("ab")}
        for i in range(size)
    ]  # fmt: skip


def _database(rows=None):
    return HiddenWebDatabase(rows or _catalog(), SCHEMA, RANKING, system_k=SYSTEM_K, name="regions")


def _cache():
    cache = QueryResultCache()
    cache.register_domains("regions", SCHEMA)
    return cache


def _box(**ranges):
    """A query of ``(lower, upper, include_lower)`` ranges, upper inclusive."""
    return SearchQuery(
        tuple(RangePredicate(name, low, high, include_low, True) for name, (low, high, include_low) in ranges.items())
    )


def _regions(cache):
    return [key for key in cache._entries if len(key[2]) == 3]


def _assert_answers_like_the_database(db, query, answer):
    """Rows as a set and outcome equal the database's; a proving answer
    holds every match, any other is the site's own page."""
    fresh = db.search(query)
    assert answer.outcome is fresh.outcome, query.describe()
    if answer.proves_query:
        assert sorted(row["id"] for row in answer.observed_rows) == sorted(
            row["id"] for row in db.all_matches(query)
        ), query.describe()
    else:
        assert [row["id"] for row in answer.rows] == [row["id"] for row in fresh.rows]


def _store(cache, db, query):
    cache.store("regions", query, SYSTEM_K, db.search(query))


def _proving_split(db, attribute, lower=0.0, upper=100.0):
    """Split ``[lower, upper]`` on ``attribute`` into halves until every
    interval proves itself; returns the leaves, low to high."""
    stack, leaves = [(lower, upper, True)], []
    while stack:
        low, high, include_low = stack.pop()
        query = _box(**{attribute: (low, high, include_low)})
        if db.search(query).covers_query:
            leaves.append(query)
            continue
        middle = (low + high) / 2.0
        stack += [(middle, high, False), (low, middle, include_low)]
    return sorted(leaves, key=lambda query: query.ranges[0].lower)


class TestCoalescing:
    def test_two_abutting_leaves_answer_a_query_across_them(self):
        db, cache = _database(), _cache()
        leaves = _proving_split(db, "x")
        for leaf in leaves:
            _store(cache, db, leaf)
        across = _box(x=(leaves[0].ranges[0].upper - 1.0, leaves[1].ranges[0].upper - 0.5, True))
        answer, status = cache.probe("regions", across, SYSTEM_K)
        assert status is FetchStatus.CONTAINED
        _assert_answers_like_the_database(db, across, answer)

    def test_a_union_spanning_the_domain_drops_its_range(self):
        """``x ∈ (10, 40] ∧ y ∈ [0, 100]`` is ``x ∈ (10, 40]``: a query with
        no ``y`` predicate inside it is answered."""
        db = HiddenWebDatabase(_catalog(), SCHEMA, RANKING, system_k=1000, name="regions")
        cache = _cache()
        for y in ((0.0, 50.0, True), (50.0, 100.0, False)):
            leaf = _box(x=(10.0, 40.0, False), y=y)
            cache.store("regions", leaf, 1000, db.search(leaf))
        [region] = _regions(cache)
        assert region[2][:2] == ((("x", 10.0, 40.0, False, True),), ())
        inside = _box(x=(15.0, 30.0, True))
        assert cache.probe("regions", inside, 1000)[1] is FetchStatus.CONTAINED

    def test_memberships_and_other_ranges_must_agree(self):
        cache = _cache()
        db = HiddenWebDatabase(_catalog(), SCHEMA, RANKING, system_k=1000, name="regions")
        low = _box(x=(0.0, 50.0, True))
        other_y = _box(x=(50.0, 100.0, False), y=(0.0, 10.0, True))
        other_kind = _box(x=(50.0, 100.0, False)).with_membership(InPredicate.of("kind", ["a"]))
        for query in (low, other_y, other_kind):
            cache.store("regions", query, 1000, db.search(query))
        assert _regions(cache) == []

    def test_the_site_answer_to_the_union_box_keeps_answering_exact_hits(self):
        """The parent's own (overflowing) answer stays the exact hit; the
        region over the same box answers only the queries inside it."""
        db, cache = _database(), _cache()
        parent = _box(x=(0.0, 100.0, True))
        _store(cache, db, parent)
        for leaf in _proving_split(db, "x"):
            _store(cache, db, leaf)
        assert _regions(cache)
        answer, status = cache.probe("regions", parent, SYSTEM_K)
        assert status is FetchStatus.HIT
        assert answer.rows == db.search(parent).rows and answer.complete_rows is None

    def test_a_region_holds_the_leaves_rows_low_side_first_whatever_the_store_order(self):
        db = HiddenWebDatabase(_catalog(), SCHEMA, RANKING, system_k=1000, name="regions")
        leaves = [_box(x=(0.0, 30.0, True)), _box(x=(30.0, 60.0, False)), _box(x=(60.0, 100.0, False))]
        expected = [row["id"] for leaf in leaves for row in db.search(leaf).rows]
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]):
            cache = _cache()
            for index in order:
                cache.store("regions", leaves[index], 1000, db.search(leaves[index]))
            [region] = _regions(cache)
            assert [row["id"] for row in cache._entries[region].observed_rows] == expected

    def test_a_second_crawl_of_a_coalesced_region_is_answered_by_the_site_pages(self):
        db, cache = _database(), QueryResultCache()
        engine = QueryEngine(db, result_cache=cache)
        query = _box(x=(5.0, 95.0, True))
        first, _ = HiddenDatabaseCrawler(engine).crawl(query)
        assert _regions(cache)
        paid = engine.statistics.external_queries
        again, recrawl = HiddenDatabaseCrawler(engine).crawl(query)
        assert engine.statistics.external_queries == paid
        assert engine.statistics.result_cache_hits == recrawl.queries_issued
        assert [row["id"] for row in again] == [row["id"] for row in first]


class TestFreshness:
    def test_a_delta_reaching_one_leaf_retires_its_region(self):
        db, cache = _database(), _cache()
        leaves = _proving_split(db, "x")
        for leaf in leaves:
            _store(cache, db, leaf)
        assert _regions(cache)
        victim = dict(db.all_matches(leaves[0])[0])
        delta = db.apply_delta(upserts=[dict(victim, y=round(100.0 - victim["y"], 2))])
        cache.invalidate_delta("regions", delta)
        touched = [
            key for key in _regions(cache)
            if cache._entries[key].query.matches(victim)
        ]  # fmt: skip
        assert touched == []
        across = _box(x=(0.0, leaves[1].ranges[0].upper, True))
        probed = cache.probe("regions", across, SYSTEM_K)
        if probed is not None:
            _assert_answers_like_the_database(db, across, probed[0])

    def test_the_next_request_after_a_delta_serves_the_live_row(self):
        """A 1D descent's leaves coalesce; a delta repricing (``y``, the
        site's ranking) a row inside one region retires it, and the next
        request serves the live row, equal to the oracle."""
        db = _database(_catalog(200))
        reranker = QueryReranker(db)
        ranking = SingleAttributeRanking("x", ascending=True)
        query = _box(x=(0.0, 100.0, True))
        reranker.rerank(query, ranking, Algorithm.BINARY).top(40)
        cache = reranker.result_cache
        region = max(_regions(cache), key=lambda key: len(cache._entries[key].observed_rows))
        victim = cache._entries[region].observed_rows[0]
        live = dict(victim, y=round(100.0 - victim["y"], 2))
        reranker.apply_delta(db.apply_delta(upserts=[live]))
        assert region not in cache._entries
        served = reranker.rerank(query, ranking, Algorithm.BINARY).top(40)
        truth = db.true_ranking(query, ranking.score)[:40]
        assert [dict(row) for row in served] == [dict(row) for row in truth]
        assert live in [dict(row) for row in served]


class TestNeverCoalesced:
    def test_degraded_and_federated_answers_never_coalesce(self):
        db = HiddenWebDatabase(_catalog(), SCHEMA, RANKING, system_k=1000, name="regions")
        cache = _cache()
        low, high = _box(x=(0.0, 50.0, True)), _box(x=(50.0, 100.0, False))
        page = db.search(low)
        degraded = SearchResult(low, page.rows, Outcome.VALID, 1000, degraded=True,
                                missing_shards=("s1",), shard_pages=((0, page),))
        federated = SearchResult(high, db.search(high).rows, Outcome.VALID, 1000,
                                 shard_pages=((0, db.search(high)),))
        cache.store("regions", low, 1000, degraded)
        cache.store("regions", high, 1000, federated)
        assert _regions(cache) == [] and cache._edges == {}

    def test_a_federated_namespace_stores_no_region(self, diamond_catalog, diamond_schema_fixture):
        federation = build_source(
            diamond_catalog, diamond_schema_fixture, AttributeOrderRanking("price"),
            DatabaseConfig(system_k=10, shards=3), name="federated",
        )  # fmt: skip
        cache = QueryResultCache()
        engine = QueryEngine(federation, result_cache=cache)
        HiddenDatabaseCrawler(engine).crawl(SearchQuery.build(ranges={"price": (300.0, 3000.0)}))
        assert len(cache) > 1 and _regions(cache) == [] and cache._edges == {}


class TestSideIndexCleanup:
    def test_evicting_every_leaf_empties_the_side_index(self):
        db = _database()
        cache = QueryResultCache(max_entries=16)
        cache.register_domains("regions", SCHEMA)
        for leaf in _proving_split(db, "x"):
            _store(cache, db, leaf)
        assert cache._edges
        for index in range(16):
            # Overflowing answers: stored, never coalesced.
            _store(cache, db, _box(y=(0.0, 90.0 + index * 0.1, True)))
        assert _regions(cache) == [] and cache._edges == {}

    def test_retiring_every_entry_empties_the_side_index(self):
        db, cache = _database(), _cache()
        for leaf in _proving_split(db, "y"):
            _store(cache, db, leaf)
        rows = db.all_matches(SearchQuery.everything())
        cache.invalidate_delta("regions", db.apply_delta(upserts=[dict(row) for row in rows]))
        assert len(cache) == 0 and cache._edges == {}

    def test_replacing_a_leaf_with_an_overflowing_answer_unlinks_it(self):
        db, cache = _database(), _cache()
        leaf = _proving_split(db, "x")[0]
        _store(cache, db, leaf)
        assert cache._edges
        answer = db.search(leaf)
        cache.store("regions", leaf, SYSTEM_K, SearchResult(leaf, answer.rows, Outcome.OVERFLOW, SYSTEM_K))
        assert cache._edges == {}


def _kd_tiling(db, rng, depth=0, box=None):
    """A random kd tiling of the domain: every node's query, leaves (which
    prove their box) and overflowing inner nodes alike."""
    box = box or {"x": (0.0, 100.0, True), "y": (0.0, 100.0, True)}
    query = _box(**box)
    if db.search(query).covers_query or depth > 12:
        return [query], [query]
    attribute = rng.choice(sorted(box))
    low, high, include_low = box[attribute]
    middle = round(rng.uniform(low + (high - low) * 0.2, high - (high - low) * 0.2), 2)
    nodes, leaves = [query], []
    for half in ((low, middle, include_low), (middle, high, False)):
        more_nodes, more_leaves = _kd_tiling(db, rng, depth + 1, dict(box, **{attribute: half}))
        nodes += more_nodes
        leaves += more_leaves
    return nodes, leaves


@given(seed=st.integers(0, 10_000), with_inner=st.booleans())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_kd_tilings_stored_in_random_order_answer_like_the_database(seed, with_inner):
    """Every node of a random kd tiling, and random boxes inside it, read
    from a cache holding the leaves (and, maybe, the inner nodes' own
    overflowing answers) in random order: each answer equals the database's
    in rows (as a set) and outcome, and a 1D tiling reassembles whole."""
    rng = random.Random(seed)
    db, cache = _database(), _cache()
    nodes, leaves = _kd_tiling(db, rng)
    stored = list(leaves) + ([node for node in nodes if node not in leaves] if with_inner else [])
    rng.shuffle(stored)
    for query in stored:
        _store(cache, db, query)
    probes = list(nodes)
    for _ in range(20):
        x = sorted(round(rng.uniform(0, 100), 2) for _ in range(2))
        y = sorted(round(rng.uniform(0, 100), 2) for _ in range(2))
        probes.append(_box(x=(x[0], x[1], True), y=(y[0], y[1], True)))
    for query in probes:
        probed = cache.probe("regions", query, SYSTEM_K)
        if probed is not None:
            _assert_answers_like_the_database(db, query, probed[0])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_a_1d_tiling_stored_in_any_order_reassembles_the_whole_interval(seed):
    rng = random.Random(seed)
    db, cache = _database(), _cache()
    leaves = _proving_split(db, "x")
    rng.shuffle(leaves)
    for leaf in leaves:
        _store(cache, db, leaf)
    everything = SearchQuery.everything()
    answer, status = cache.probe("regions", everything, SYSTEM_K)
    assert status is FetchStatus.CONTAINED
    _assert_answers_like_the_database(db, everything, answer)


def test_concurrent_stores_reassemble_a_tiling_like_serial_ones():
    """Eight threads store a 1D tiling's leaves at once while they probe:
    the store and its coalescing run under the cache lock, so the side index
    points at live entries only and the whole interval is answered."""
    db, cache = _database(_catalog(200)), _cache()
    leaves = _proving_split(db, "x")
    answers = {leaf: db.search(leaf) for leaf in leaves}
    errors = []

    def work(lane):
        try:
            mine = leaves[lane::8]
            random.Random(lane).shuffle(mine)
            for leaf in mine:
                cache.store("regions", leaf, SYSTEM_K, answers[leaf])
                cache.probe("regions", leaf, SYSTEM_K)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(lane,)) for lane in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert set(cache._edges.values()) <= set(cache._entries)
    everything = SearchQuery.everything()
    answer, status = cache.probe("regions", everything, SYSTEM_K)
    assert status is FetchStatus.CONTAINED
    _assert_answers_like_the_database(db, everything, answer)
