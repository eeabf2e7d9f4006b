"""Tests for the on-the-fly dense-region index.

A crawled box is one region entry of the query-result cache, and
:class:`DenseRegionIndex` is one namespace's view of those entries plus the
persistent store.  Its coverage, bookkeeping, delta counting and persistence
are tested on a cache alone; :func:`dense_rows` — the one reader — is tested
through a :class:`QueryEngine` over a result cache, with the brute-force scan
of the database as the oracle.
"""

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.dense_index import DenseRegionIndex, crawl_region, dense_rows
from repro.core.functions import SingleAttributeRanking
from repro.core.parallel import QueryEngine
from repro.core.regions import to_query
from repro.core.reranker import Algorithm, QueryReranker
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.build import build_source
from repro.webdb.cache import QueryResultCache, default_namespace
from repro.webdb.delta import CatalogDelta
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from tests.conftest import assert_matches_ground_truth

ROWS = [
    {"id": "a", "price": 10.0, "carat": 1.0},
    {"id": "b", "price": 20.0, "carat": 1.5},
    {"id": "c", "price": 30.0, "carat": 2.0},
]
K = 2


@pytest.fixture()
def cache() -> QueryResultCache:
    return QueryResultCache()


@pytest.fixture()
def index(cache) -> DenseRegionIndex:
    return DenseRegionIndex(cache, "db")


def _inside(box, rows=ROWS):
    return [row for row in rows if box.matches(row)]


class TestCoverage:
    def test_interval_coverage(self, index):
        index.add_interval("price", 0.0, 100.0, ROWS, K)
        stored = SearchQuery.build(ranges={"price": (0.0, 100.0)})
        assert index.lookup_interval("price", RangePredicate("price", 10.0, 50.0)) == stored
        assert index.lookup_interval("price", RangePredicate("price", 50.0, 150.0)) is None
        assert index.lookup_interval("carat", RangePredicate("carat", 1.0, 2.0)) is None

    def test_a_region_covers_every_box_inside_it_whatever_its_signature(self, index):
        box = SearchQuery.build(ranges={"price": (0.0, 100.0), "carat": (0.0, 3.0)})
        index.add_region(box, ROWS, K)
        inner = SearchQuery.build(ranges={"price": (10.0, 20.0), "carat": (1.0, 2.0)})
        assert index.lookup(inner) == box
        outer = SearchQuery.build(ranges={"price": (0.0, 200.0), "carat": (0.0, 3.0)})
        assert index.lookup(outer) is None
        # A 1D question leaves carat open: the 2D region does not hold it.
        assert index.lookup_interval("price", RangePredicate("price", 10.0, 20.0)) is None
        # A 1D region holds a 2D box inside it.
        ratio = SearchQuery.build(ranges={"price": (0.0, 15.0)})
        index.add_region(ratio, ROWS[:1], K)
        assert index.lookup(
            SearchQuery.build(ranges={"price": (0.0, 5.0), "length_width_ratio": (1.0, 1.1)})
        ) == ratio

    def test_half_open_request_covered_by_closed_region(self, index):
        index.add_interval("price", 0.0, 100.0, ROWS, K)
        half_open = RangePredicate("price", 10.0, 100.0, include_lower=False)
        assert index.lookup_interval("price", half_open) is not None

    def test_boxes_are_kept_as_added(self, index):
        """Boxes sharing a closed edge overlap there, so they do not
        coalesce: their union is covered by neither, and a repeat replaces
        its box."""
        index.add_interval("price", 0.0, 15.0, ROWS[:1], K)
        index.add_interval("price", 15.0, 35.0, ROWS[1:], K)
        index.add_interval("price", 15.0, 35.0, ROWS[1:], K)
        assert index.region_count() == 2
        assert index.lookup_interval("price", RangePredicate("price", 5.0, 25.0)) is None


class TestBookkeeping:
    def test_counts_and_signatures(self, index):
        index.add_interval("price", 0.0, 50.0, ROWS[:2], K)
        index.add_region(
            SearchQuery.build(ranges={"price": (0.0, 50.0), "carat": (0.0, 3.0)}), ROWS, K
        )
        assert index.region_count() == 2
        description = index.describe()
        assert description["per_signature"] == {"price": 1, "carat+price": 1}
        assert description["regions"] == 2 and not description["persistent"]

    def test_a_delta_retires_only_the_regions_it_reaches(self, cache, index):
        """The index counts the region entries a delta reaches; the cache's
        own retirement, run after it, drops exactly those."""
        index.add_interval("price", 0.0, 15.0, ROWS[:1], K)
        index.add_interval("price", 25.0, 35.0, ROWS[2:], K)
        box = SearchQuery.build(ranges={"price": (0.0, 50.0), "carat": (0.0, 1.2)})
        index.add_region(box, _inside(box), K)
        # Row "a" lies in the first interval and in the box; "c" is untouched.
        delta = CatalogDelta.from_rows("db", "id", ROWS[:1])
        assert index.invalidate_delta(delta) == 2
        assert index.region_count() == 3
        cache.invalidate_delta("db", delta)
        assert index.region_count() == 1
        description = index.describe()
        assert description["delta_retired"] == 2
        # A signature left with no region is gone from the summary.
        assert description["per_signature"] == {"price": 1}
        assert index.lookup_interval("price", RangePredicate("price", 5.0, 10.0)) is None
        assert index.lookup_interval("price", RangePredicate("price", 28.0, 32.0)) is not None

    def test_an_empty_index_counts_a_miss(self, index):
        assert index.lookup_interval("price", RangePredicate("price", 0.0, 10.0)) is None
        assert index.invalidate_delta(CatalogDelta.from_rows("db", "id", ROWS)) == 0
        description = index.describe()
        assert (description["regions"], description["lookups"], description["hits"]) == (0, 1, 0)
        assert description["per_signature"] == {}

    def test_lookup_counters(self, index):
        index.add_interval("price", 0.0, 50.0, ROWS, K)
        index.lookup_interval("price", RangePredicate("price", 0.0, 10.0))
        index.lookup_interval("price", RangePredicate("price", 60.0, 90.0))
        description = index.describe()
        assert description["lookups"] == 2
        assert description["hits"] == 1

    def test_a_namespace_sees_only_its_own_regions(self, cache, index):
        DenseRegionIndex(cache, "other").add_interval("price", 0.0, 50.0, ROWS, K)
        assert index.region_count() == 0
        assert index.lookup_interval("price", RangePredicate("price", 0.0, 10.0)) is None


class TestPersistence:
    def test_regions_survive_reload(self, diamond_schema_fixture, tmp_path):
        """The store keeps the box; a restarted index over a fresh cache
        holds no region until verification crawls the box again."""
        path = str(tmp_path / "dense.sqlite")
        store = DenseRegionCache(diamond_schema_fixture, path=path)
        DenseRegionIndex(QueryResultCache(), "db", store).add_interval(
            "length_width_ratio", 1.0, 1.0, [], K
        )
        store.close()

        reopened = DenseRegionCache(diamond_schema_fixture, path=path)
        second = DenseRegionIndex(QueryResultCache(), "db", reopened)
        assert second.describe()["persistent"] and second.region_count() == 0
        [stored] = reopened.regions()
        assert stored.bounds == {"length_width_ratio": (1.0, 1.0)}
        reopened.close()

    def test_a_retired_region_is_not_resurrected_by_a_reload(
        self, diamond_schema_fixture, tmp_path
    ):
        path = str(tmp_path / "dense.sqlite")
        store = DenseRegionCache(diamond_schema_fixture, path=path)
        index = DenseRegionIndex(QueryResultCache(), "db", store)
        index.add_interval("price", 0.0, 15.0, [], K)
        index.add_interval("price", 25.0, 35.0, [], K)
        assert index.invalidate_delta(CatalogDelta.from_rows("db", "id", ROWS[:1])) == 1
        store.close()

        reopened = DenseRegionCache(diamond_schema_fixture, path=path)
        assert [stored.bounds for stored in reopened.regions()] == [{"price": (25.0, 35.0)}]
        reopened.close()

    def test_a_region_read_across_a_delta_is_neither_stored_nor_persisted(
        self, diamond_schema_fixture, tmp_path
    ):
        """Rows read before a delta that can match their box may be stale:
        the region is dropped, in memory and on disk; a delta that cannot
        match it lets it through."""
        cache = QueryResultCache()
        store = DenseRegionCache(diamond_schema_fixture, path=str(tmp_path / "dense.sqlite"))
        index = DenseRegionIndex(cache, "db", store)
        since = index.stamp()
        cache.invalidate_delta("db", CatalogDelta.from_rows("db", "id", ROWS[:1]))
        index.add_interval("price", 25.0, 35.0, ROWS[2:], K)  # no ``since``: stored
        index.add_region(SearchQuery.build(ranges={"price": (0.0, 15.0)}), ROWS[:1], K, since)
        index.add_region(SearchQuery.build(ranges={"price": (40.0, 50.0)}), [], K, since)
        assert sorted(box.range_on("price").lower for box in cache.regions("db")) == [25.0, 40.0]
        assert sorted(s.bounds["price"] for s in store.regions()) == [(25.0, 35.0), (40.0, 50.0)]
        store.close()


def _truth(database, box, base_query):
    return sorted(
        row["id"]
        for row in database.all_matches(base_query)
        if box.matches(row)
    )


def _index_over(database, cache):
    """The index a reranker over ``database`` sharing ``cache`` builds."""
    return DenseRegionIndex(cache, default_namespace(database))


class TestDenseRows:
    def test_a_stored_region_is_read_from_the_result_cache(self, bluenile_db):
        """The first read crawls the box and stores it as a region entry; a
        read of a box inside it is answered by the cache at zero queries
        with the oracle's rows, and so is a filtered ask inside it."""
        cache = QueryResultCache()
        index = _index_over(bluenile_db, cache)
        box = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        everything = SearchQuery.everything()

        first = QueryEngine(bluenile_db, result_cache=cache)
        rows, answer = dense_rows(first, first.statistics, index, box, everything)
        assert answer is None and first.queries_issued() > 0
        assert sorted(row["id"] for row in rows) == _truth(bluenile_db, box, everything)
        assert index.lookup(box) == box
        assert first.statistics.dense_regions_built == 1

        inner = SearchQuery.build(ranges={"length_width_ratio": (1.0, 1.1)})
        second = QueryEngine(bluenile_db, result_cache=cache)
        rows, answer = dense_rows(second, second.statistics, index, inner, everything)
        assert answer is None and second.queries_issued() == 0
        assert sorted(row["id"] for row in rows) == _truth(bluenile_db, inner, everything)
        assert second.statistics.dense_index_hits == 1
        assert second.statistics.dense_regions_built == 0

        cheap = SearchQuery.build(ranges={"price": (0.0, 2000.0)})
        third = QueryEngine(bluenile_db, result_cache=cache)
        rows, answer = dense_rows(
            third, third.statistics, index, inner, cheap, ask=to_query(inner, cheap)
        )
        assert answer is not None and answer.proves_query and third.queries_issued() == 0
        assert sorted(row["id"] for row in rows) == _truth(bluenile_db, inner, cheap)

    def test_crawl_region_counts_one_region_and_its_tuples(self, bluenile_db):
        query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        engine = QueryEngine(bluenile_db)
        rows = crawl_region(engine, engine.statistics, query)
        assert sorted(row["id"] for row in rows) == sorted(
            row["id"] for row in bluenile_db.all_matches(query)
        )
        assert engine.statistics.dense_regions_built == 1
        assert engine.statistics.crawled_tuples == len(rows)

    def test_a_repeated_read_stores_the_region_once_and_costs_nothing(self, bluenile_db):
        cache = QueryResultCache()
        index = _index_over(bluenile_db, cache)
        box = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        everything = SearchQuery.everything()
        reads = []
        for _ in range(3):
            engine = QueryEngine(bluenile_db, result_cache=cache)
            rows, _ = dense_rows(engine, engine.statistics, index, box, everything)
            assert sorted(row["id"] for row in rows) == _truth(bluenile_db, box, everything)
            reads.append((engine.queries_issued(), engine.statistics.dense_regions_built,
                          index.region_count()))
        assert reads[0][0] > 0 and reads[0][1] == 1
        assert reads[1:] == [(0, 0, reads[0][2])] * 2
        assert index.describe()["hits"] == 2

    def test_a_hit_honours_open_sides_and_membership_filters(self, bluenile_db):
        """A half-open box inside a stored closed one, read with a
        membership filter, returns exactly the oracle's rows: the boundary
        value is left out and the filter applied."""
        cache = QueryResultCache()
        index = _index_over(bluenile_db, cache)
        everything = SearchQuery.everything()
        stored = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        first = QueryEngine(bluenile_db, result_cache=cache)
        dense_rows(first, first.statistics, index, stored, everything)

        half_open = SearchQuery(
            (RangePredicate("length_width_ratio", 1.0, 1.2, include_lower=False),)
        )
        shape = bluenile_db.all_matches(stored)[0]["shape"]
        filtered = SearchQuery.build(memberships={"shape": [shape]})
        second = QueryEngine(bluenile_db, result_cache=cache)
        rows, _ = dense_rows(second, second.statistics, index, half_open, filtered)
        assert second.queries_issued() == 0
        assert rows and all(row["length_width_ratio"] > 1.0 for row in rows)
        assert sorted(row["id"] for row in rows) == _truth(bluenile_db, half_open, filtered)

    def test_a_proving_ask_answers_without_a_crawl(self, bluenile_db):
        """A filtered region thinner than ``system_k`` is answered by its one
        query: nothing is crawled or stored as a region."""
        cache = QueryResultCache()
        index = _index_over(bluenile_db, cache)
        box = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        stone = bluenile_db.all_matches(box)[0]
        thin = SearchQuery.build(ranges={"price": (stone["price"], stone["price"])})
        engine = QueryEngine(bluenile_db, result_cache=cache)
        rows, answer = dense_rows(
            engine, engine.statistics, index, box, thin, ask=to_query(box, thin)
        )
        assert answer is not None and answer.proves_query
        assert engine.queries_issued() == 1
        assert sorted(row["id"] for row in rows) == _truth(bluenile_db, box, thin)
        assert index.region_count() == 0
        assert engine.statistics.dense_regions_built == 0
        assert engine.statistics.dense_index_hits == 0

    def test_an_overflowing_ask_crawls_the_box_without_the_filters(self, bluenile_db):
        """When the filtered region still overflows, the box is crawled
        unfiltered and stored; the rows returned are the filtered ones,
        beside the overflowing answer."""
        cache = QueryResultCache()
        index = _index_over(bluenile_db, cache)
        box = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        cheap = SearchQuery.build(ranges={"price": (0.0, 5000.0)})
        engine = QueryEngine(bluenile_db, result_cache=cache)
        rows, answer = dense_rows(
            engine, engine.statistics, index, box, cheap, ask=to_query(box, cheap)
        )
        assert answer is not None and not answer.proves_query
        assert sorted(row["id"] for row in rows) == _truth(bluenile_db, box, cheap)
        assert index.lookup(box) == box
        assert engine.statistics.dense_regions_built == 1
        assert engine.statistics.dense_index_hits == 0

    def test_a_1d_region_answers_a_2d_box_inside_it_at_zero_queries(self, bluenile_db):
        """A stored ``length_width_ratio`` region holds every
        ``(length_width_ratio, carat)`` box inside it: the 2D read costs no
        query and returns the oracle's rows."""
        cache = QueryResultCache()
        index = _index_over(bluenile_db, cache)
        everything = SearchQuery.everything()
        ratio = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        first = QueryEngine(bluenile_db, result_cache=cache)
        dense_rows(first, first.statistics, index, ratio, everything)

        box = SearchQuery.build(ranges=
            {"length_width_ratio": (0.99, 1.2), "carat": (0.2, 1.0)}
        )
        second = QueryEngine(bluenile_db, result_cache=cache)
        rows, _ = dense_rows(second, second.statistics, index, box, everything)
        assert second.queries_issued() == 0
        assert second.statistics.dense_index_hits == 1
        assert second.statistics.dense_regions_built == 0
        assert rows and sorted(row["id"] for row in rows) == _truth(bluenile_db, box, everything)

    def test_a_read_through_another_cache_pays_and_stays_right(self, bluenile_db):
        """A region is an entry of its cache alone: read through an engine
        over another cache, the box is crawled again at a cost, and its rows
        are still the oracle's, each once."""
        cache = QueryResultCache()
        index = _index_over(bluenile_db, cache)
        box = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
        everything = SearchQuery.everything()
        first = QueryEngine(bluenile_db, result_cache=cache)
        dense_rows(first, first.statistics, index, box, everything)

        inner = SearchQuery.build(ranges={"length_width_ratio": (1.0, 1.0)})
        second = QueryEngine(bluenile_db, result_cache=QueryResultCache())
        rows, answer = dense_rows(second, second.statistics, index, inner, everything)
        assert answer is None and second.queries_issued() > 0
        assert second.statistics.dense_index_hits == 0
        assert second.statistics.dense_regions_built == 1
        ids = [row["id"] for row in rows]
        assert len(ids) == len(set(ids))
        assert sorted(ids) == _truth(bluenile_db, inner, everything)


def test_a_verified_region_over_a_federation_is_read_at_zero_queries(
    diamond_catalog, diamond_schema_fixture, tmp_path
):
    """Boot verification over a 3-shard federation stores its live answers
    and the verified box, as a region entry, in the shared result cache: the
    restarted reranker reads the region at zero queries, and its page equals
    the brute-force ranking."""
    path = str(tmp_path / "dense.sqlite")
    query = SearchQuery.build(ranges={"length_width_ratio": (0.99, 1.2)})
    ranking = SingleAttributeRanking("length_width_ratio", ascending=True)

    def federation():
        return build_source(
            diamond_catalog,
            diamond_schema_fixture,
            FeaturedScoreRanking("price", boost_weight=2500.0),
            DatabaseConfig(system_k=10, shards=3),
            name="verified",
        )

    first = DenseRegionCache(diamond_schema_fixture, path=path)
    QueryReranker(federation(), dense_cache=first).rerank(query, ranking).top(20)
    [stored] = first.regions()
    first.close()

    second = DenseRegionCache(diamond_schema_fixture, path=path)
    source = federation()
    reranker = QueryReranker(source, dense_cache=second)
    assert reranker.verify_dense_cache() == {"checked": 1, "refreshed": 0, "unchanged": 1}
    box = SearchQuery.build(ranges=stored.bounds)
    # A federation's answers never coalesce: the region is verification's own entry.
    assert reranker.dense_index.lookup(box) == box
    engine = QueryEngine(source, result_cache=reranker.result_cache)
    everything = SearchQuery.everything()
    rows, _ = dense_rows(engine, engine.statistics, reranker.dense_index, box, everything)
    assert engine.queries_issued() == 0
    assert sorted(row["id"] for row in rows) == _truth(source, box, everything)
    stream = reranker.rerank(query, ranking)
    page = stream.top(20)
    assert stream.statistics.dense_regions_built == 0
    truth = sorted(source.all_matches(query), key=lambda row: (ranking.score(row), str(row["id"])))
    assert_matches_ground_truth(page, truth[:20], ranking)
    second.close()


def test_region_heavy_rerank_matches_the_oracle(bluenile_db, monkeypatch):
    """1D-RERANK over nested and shifted windows around the big
    ``length_width_ratio = 1.0`` cluster, with an eager density threshold so
    the shared index registers overlapping regions (feed off: repeats must
    reach the index, not a replay).  Every page equals the brute-force
    ranking, and the repeats cost nothing."""
    ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
    windows = [(0.995, 1.6), (0.99, 1.2), (0.995, 1.3), (1.05, 1.5), (1.15, 1.8), (1.0, 1.45)]
    monkeypatch.setattr("repro.core.dense_index.DENSE_RATIO_THRESHOLD", 0.02)
    reranker = QueryReranker(bluenile_db, config=RerankConfig(enable_rerank_feed=False))
    costs = []
    for window in windows * 2:
        query = SearchQuery.build(ranges={"length_width_ratio": window})
        stream = reranker.rerank(query, ranking, Algorithm.RERANK)
        rows = stream.top(10)
        truth = bluenile_db.true_ranking(query, ranking.score, limit=10)
        assert_matches_ground_truth(rows, truth, ranking)
        costs.append(stream.statistics.external_queries)
    assert reranker.dense_index.region_count() >= 1
    assert reranker.dense_index.describe()["hits"] >= 1
    assert costs[len(windows):] == [0] * len(windows)
    reranker.close()
