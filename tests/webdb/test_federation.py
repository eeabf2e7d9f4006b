"""Tests for the rank-position partitioner, the federated interface and the
one source-build path (``build_source``)."""

import random
from dataclasses import replace

import pytest

from repro.config import DatabaseConfig, RerankConfig
from repro.core.parallel import QueryEngine
from repro.core.reranker import QueryReranker
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable
from repro.exceptions import QueryError, SchemaError
from repro.sqlstore.store import SQLiteTupleStore
from repro.webdb import arrays
from repro.webdb.build import build_source
from repro.webdb.cache import FetchStatus, QueryResultCache, default_namespace
from repro.webdb.database import HiddenWebDatabase, stream_sorted_columns
from repro.webdb.faults import FaultPlan
from repro.webdb.federation import FederatedInterface, partition_positions
from repro.webdb.interface import Outcome
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from repro.webdb.stack import SourceStack
from tests.conftest import draw_request, page_through


RANKING = FeaturedScoreRanking("price", boost_weight=2500.0)


@pytest.fixture(scope="module")
def reference_db(diamond_catalog, diamond_schema_fixture) -> HiddenWebDatabase:
    """The unsharded reference engine every federation must reproduce."""
    return HiddenWebDatabase(
        diamond_catalog,
        diamond_schema_fixture,
        RANKING,
        system_k=10,
        name="fed-reference",
    )


def make_federation(catalog, schema, shards=2, by="rank", **kwargs):
    return build_source(
        catalog, schema, RANKING,
        DatabaseConfig(system_k=10, shards=shards, shard_by=by),
        name="fedtest", **kwargs,
    )


class TestPartitionPositions:
    @pytest.fixture(scope="class")
    def columns(self, diamond_catalog, diamond_schema_fixture):
        return stream_sorted_columns(diamond_catalog, diamond_schema_fixture, RANKING)

    def test_rank_partition_is_disjoint_and_complete(
        self, columns, diamond_catalog, diamond_schema_fixture
    ):
        buckets, partitions = partition_positions(columns, diamond_schema_fixture, 3)
        assert len(buckets) == 3
        assert partitions is None
        positions = [position for bucket in buckets for position in bucket]
        assert sorted(positions) == list(range(len(diamond_catalog)))

    def test_rank_partition_interleaves_hidden_ranks(
        self, columns, diamond_schema_fixture
    ):
        # Round-robin over hidden-rank order: the globally best tuple lands in
        # bucket 0, the second best in bucket 1, and so on — and every bucket
        # stays rank-ordered.
        buckets, _ = partition_positions(columns, diamond_schema_fixture, 2)
        assert buckets[0][:3] == [0, 2, 4]
        assert buckets[1][:3] == [1, 3, 5]

    def test_attribute_partition_ranges_are_disjoint(
        self, columns, diamond_catalog, diamond_schema_fixture
    ):
        buckets, partitions = partition_positions(
            columns, diamond_schema_fixture, 4, by="price"
        )
        assert partitions is not None and len(partitions) == len(buckets)
        # Every tuple sits inside its own bucket's owned range only, and each
        # bucket is an increasing (rank-ordered) position list.
        for index, (bucket, partition) in enumerate(zip(buckets, partitions)):
            assert bucket == sorted(bucket)
            for position in bucket:
                value = float(columns["price"][position])
                owners = [i for i, p in enumerate(partitions) if p.matches(value)]
                assert owners == [index]
        positions = [position for bucket in buckets for position in bucket]
        assert sorted(positions) == list(range(len(diamond_catalog)))
        assert partitions[0].lower == float("-inf")
        assert partitions[-1].upper == float("inf") and partitions[-1].include_upper
        assert not partitions[0].include_upper

    def test_attribute_partition_requires_numeric(self, columns, diamond_schema_fixture):
        with pytest.raises(SchemaError):
            partition_positions(columns, diamond_schema_fixture, 2, by="cut")

    def test_positive_shard_count_required(self, columns, diamond_schema_fixture):
        with pytest.raises(QueryError):
            partition_positions(columns, diamond_schema_fixture, 0)

    def test_empty_catalog_cannot_be_cut_by_attribute(self, diamond_schema_fixture):
        empty = stream_sorted_columns([], diamond_schema_fixture, RANKING)
        with pytest.raises(QueryError):
            partition_positions(empty, diamond_schema_fixture, 2, by="price")


class TestFederatedInterface:
    def test_requires_shards(self):
        with pytest.raises(QueryError):
            FederatedInterface([], RANKING)

    def test_rejects_duplicate_shard_names(
        self, diamond_catalog, diamond_schema_fixture
    ):
        db = HiddenWebDatabase(
            diamond_catalog, diamond_schema_fixture, RANKING, system_k=10, name="twin"
        )
        with pytest.raises(QueryError):
            FederatedInterface([db, db], RANKING)

    def test_rejects_name_colliding_with_shard(
        self, diamond_catalog, diamond_schema_fixture
    ):
        db = HiddenWebDatabase(
            diamond_catalog, diamond_schema_fixture, RANKING, system_k=10, name="clash"
        )
        with pytest.raises(QueryError):
            FederatedInterface([db], RANKING, name="clash")

    @pytest.mark.parametrize("by", ["rank", "price"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_search_byte_identical_to_unsharded(
        self, diamond_catalog, diamond_schema_fixture, reference_db, by, shards
    ):
        federation = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=shards, by=by
        )
        queries = [
            SearchQuery.everything(),
            SearchQuery.build(ranges={"carat": (0.5, 2.5)}),
            SearchQuery.build(ranges={"price": (200.0, 1200.0)}),
            SearchQuery.build(ranges={"price": (300.4, 300.6)}),
        ]
        for query in queries:
            expected = reference_db.search(query)
            got = federation.search(query)
            assert got.outcome is expected.outcome, query.describe()
            assert [dict(r) for r in got.rows] == [dict(r) for r in expected.rows]

    def test_outcome_trichotomy(
        self, diamond_catalog, diamond_schema_fixture
    ):
        federation = make_federation(diamond_catalog, diamond_schema_fixture, shards=3)
        assert federation.search(SearchQuery.everything()).outcome is Outcome.OVERFLOW
        narrow = SearchQuery.build(ranges={"price": (300.4, 300.6)})
        assert federation.search(narrow).outcome is Outcome.UNDERFLOW

    def test_valid_when_union_fits_k(self, diamond_catalog, diamond_schema_fixture):
        federation = make_federation(diamond_catalog, diamond_schema_fixture, shards=2)
        reference = HiddenWebDatabase(
            diamond_catalog, diamond_schema_fixture, RANKING, system_k=10, name="ref2"
        )
        # Find a window with 1..k matches to classify as VALID.
        lower, upper = diamond_schema_fixture.domain_bounds("price")
        width = (upper - lower) / 64
        query = None
        for step in range(64):
            candidate = SearchQuery.build(
                ranges={"price": (lower + step * width, lower + (step + 1) * width)}
            )
            count = len(reference.all_matches(candidate))
            if 0 < count <= 10:
                query = candidate
                break
        assert query is not None, "no VALID window found at this catalog size"
        result = federation.search(query)
        assert result.outcome is Outcome.VALID
        assert result.covers_query

    def test_attribute_pruning_skips_shards(
        self, diamond_catalog, diamond_schema_fixture, reference_db
    ):
        federation = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=4, by="price"
        )
        # Window over the bottom decile of the *data* (not the domain): it
        # can only intersect the first quantile partition.
        prices = sorted(float(row["price"]) for row in diamond_catalog.to_rows())
        query = SearchQuery.build(
            ranges={"price": (prices[0], prices[len(prices) // 10])}
        )
        result = federation.search(query)
        expected = reference_db.search(query)
        assert [dict(r) for r in result.rows] == [dict(r) for r in expected.rows]
        described = federation.describe()
        assert described["pruned_shard_queries"] > 0
        assert described["fan_out"]["max"] < federation.shard_count
        # Rank partitioning cannot prune: every shard sees every scatter.
        rank_federation = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=4, by="rank"
        )
        rank_federation.search(query)
        assert rank_federation.describe()["pruned_shard_queries"] == 0

    def test_scatter_counters_and_describe(
        self, diamond_catalog, diamond_schema_fixture
    ):
        federation = make_federation(diamond_catalog, diamond_schema_fixture, shards=2)
        federation.search(SearchQuery.everything())
        federation.search(SearchQuery.build(ranges={"carat": (0.5, 2.5)}))
        described = federation.describe()
        assert described["shard_count"] == 2
        assert described["scatter_queries"] == 2
        assert described["fan_out"] == {"total": 4, "max": 2, "mean": 2.0}
        assert described["shard_queries"] == 4
        assert len(described["shards"]) == 2
        for shard_info in described["shards"]:
            assert shard_info["queries"] == 2
        assert federation.queries_issued() == 2
        federation.reset_query_count()
        assert federation.queries_issued() == 0

    def test_reset_clears_every_scatter_counter_together(
        self, diamond_catalog, diamond_schema_fixture
    ):
        """Regression: a reset that zeroed the scatter count alone left the
        fan-out and merge totals behind, so the means divided old totals by
        the new count (fan-out 6.0 over 2 shards, mean depth 60 over a max
        of 20)."""
        federation = make_federation(diamond_catalog, diamond_schema_fixture, shards=2)
        federation.search(SearchQuery.everything())
        federation.search(SearchQuery.build(ranges={"carat": (0.5, 2.5)}))
        federation.reset_query_count()
        federation.search(SearchQuery.everything())
        described = federation.describe()
        assert described["scatter_queries"] == 1
        assert described["fan_out"]["mean"] <= federation.shard_count
        assert described["merge"]["mean_depth"] <= described["merge"]["max_depth"]

    def test_shard_cache_namespaces(self, diamond_catalog, diamond_schema_fixture):
        cache = QueryResultCache(max_entries=64)
        federation = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=2, result_cache=cache
        )
        described = federation.describe()
        assert [described["shards"][i]["name"] for i in range(2)] == ["fedtest#0", "fedtest#1"]
        query = SearchQuery.everything()
        federation.search(query)
        first_hits = federation.shard_queries_issued()
        federation.search(query)  # served from the per-shard cache
        assert federation.shard_queries_issued() == first_hits
        described = federation.describe()
        assert all(info["cache_hits"] == 1 for info in described["shards"])

    def test_ground_truth_helpers_merge_shards(
        self, diamond_catalog, diamond_schema_fixture, reference_db
    ):
        federation = make_federation(diamond_catalog, diamond_schema_fixture, shards=3)
        assert federation.size == reference_db.size
        query = SearchQuery.build(ranges={"carat": (0.5, 2.5)})
        assert federation.all_matches(query) == reference_db.all_matches(query)

        def score(row):
            return float(row["depth"])

        assert federation.true_ranking(query, score, limit=12) == (
            reference_db.true_ranking(query, score, limit=12)
        )


def draw_window(rng, sorted_values):
    """A filter on one or two attributes whose first window holds 1–60 of the
    400 tuples: a drawn merge covers, overflows a shard, or proves more than
    ``k`` matches."""
    attributes = rng.sample(sorted(sorted_values), rng.choice([1, 2]))
    values = sorted_values[attributes[0]]
    start = rng.randrange(len(values))
    stop = min(len(values) - 1, start + rng.randint(0, 59))
    ranges = {attributes[0]: (values[start], values[stop])}
    for attribute in attributes[1:]:
        values = sorted_values[attribute]
        ranges[attribute] = (values[len(values) // 10], values[-1])
    return SearchQuery.build(ranges=ranges)


def every_shard_covers(federation, query):
    """True when each shard alone holds at most its ``k`` matches of ``query``
    (a shard the query is pruned from holds none)."""
    return all(
        len(shard.all_matches(query)) <= shard.system_k for shard in federation.shards
    )


def find_complete_query(federation, reference_db, sorted_values, seed):
    """A drawn query whose merge proves more than ``k`` matches."""
    rng = random.Random(seed)
    for _ in range(500):
        query = draw_window(rng, sorted_values)
        if every_shard_covers(federation, query) and (
            len(reference_db.all_matches(query)) > federation.system_k
        ):
            return query
    raise AssertionError("no query proving more than k matches was drawn")


@pytest.fixture(scope="module")
def sorted_values(diamond_catalog):
    rows = diamond_catalog.to_rows()
    return {
        name: sorted(float(row[name]) for row in rows) for name in ("price", "carat", "depth")
    }


class TestCompleteMerge:
    """A merge of shard pages that all cover the query keeps the whole match
    set beside the truncated page, and only then."""

    @pytest.mark.parametrize("by", ["rank", "price"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_complete_rows_are_every_match_exactly_when_proven(
        self, diamond_catalog, diamond_schema_fixture, reference_db, sorted_values, shards, by
    ):
        cache = QueryResultCache()
        federation = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=shards, by=by, result_cache=cache
        )
        engine = QueryEngine(federation, result_cache=cache)
        facade = default_namespace(federation)
        rng = random.Random(f"{shards}-{by}")
        proven = 0
        for _ in range(300):
            query = draw_window(rng, sorted_values)
            expected = reference_db.search(query)
            got = engine.search(query)
            assert got.outcome is expected.outcome, query.describe()
            assert [dict(r) for r in got.rows] == [dict(r) for r in expected.rows]
            matches = reference_db.all_matches(query)
            if every_shard_covers(federation, query) and len(matches) > federation.system_k:
                proven += 1
                assert got.complete_rows is not None, query.describe()
                assert [dict(r) for r in got.complete_rows] == [dict(r) for r in matches]
                assert got.observed_rows == got.complete_rows and got.proves_query
                hit = cache.probe(facade, query, federation.system_k)
                assert hit is not None and hit[1] is FetchStatus.HIT
                assert hit[0].complete_rows == got.complete_rows
            else:
                assert got.complete_rows is None, query.describe()
                assert got.proves_query is got.covers_query
        assert proven >= 10
        # A repeated query is a facade hit, not a merge.
        assert 0 < federation.describe()["merge"]["complete_merges"] <= proven

    def test_degraded_merge_never_carries_it(
        self, diamond_catalog, diamond_schema_fixture, reference_db, sorted_values
    ):
        cache = QueryResultCache()
        federation = build_source(
            diamond_catalog, diamond_schema_fixture, RANKING,
            DatabaseConfig(
                system_k=10, shards=4, fault_plan=FaultPlan(seed=31, transient_rate=0.0001)
            ),
            name="fedtest", result_cache=cache,
        )
        query = find_complete_query(federation, reference_db, sorted_values, seed=4)
        assert federation.search(query).complete_rows is not None
        engine = QueryEngine(federation, result_cache=cache)
        assert engine.search(query).complete_rows is not None

        # Shard 1 goes down.  A query it never answered: the live shards
        # still cover it and hold more than k matches together, but the merge
        # is degraded.
        injector = federation.fault_injectors()[1]
        injector.set_plan(replace(injector.plan, fail_from=0))
        rng = random.Random(7)
        for _ in range(500):
            other = draw_window(rng, sorted_values)
            live = [
                len(shard.all_matches(other))
                for index, shard in enumerate(federation.shards)
                if index != 1
            ]
            if other != query and max(live) <= 10 < sum(live):
                break
        else:
            raise AssertionError("no degraded query proving more than k was drawn")
        degraded = federation.search(other)
        assert degraded.degraded and degraded.missing_shards == ("fedtest#1",)
        assert degraded.complete_rows is None and not degraded.proves_query


class TestFederatedDelta:
    """``apply_delta`` one level up keeps the single database's promises."""

    @pytest.mark.parametrize("by", ["rank", "price"])
    def test_invalid_row_leaves_every_shard_untouched(
        self, diamond_catalog, diamond_schema_fixture, by
    ):
        """A delta whose last row is out of domain raises before the first
        shard is repriced — there is no half-applied change for the caches
        (which are only invalidated by a *returned* delta) to miss."""
        from repro.core.functions import SingleAttributeRanking

        schema = diamond_schema_fixture
        config = RerankConfig()
        cache = QueryResultCache()
        federation = make_federation(
            diamond_catalog, schema, shards=4, by=by, result_cache=cache
        )
        reranker = QueryReranker(federation, config=config, result_cache=cache)
        ranking = SingleAttributeRanking("price", ascending=True)
        first, other = federation.shards[0], federation.shards[2]
        victim = first.all_matches(SearchQuery.everything())[0]
        bystander = other.all_matches(SearchQuery.everything())[0]
        low, high = schema.domain_bounds("price")
        query = SearchQuery.build(ranges={"price": (low, victim["price"] + 1.0)})

        def page():
            stream = reranker.rerank(query, ranking)
            try:
                return [dict(row) for row in stream.next_page(50)]
            finally:
                stream.close()

        try:
            before = page()
            assert victim in before
            published = [shard._published for shard in federation.shards]
            with pytest.raises(SchemaError):
                reranker.apply_delta(
                    upserts=[
                        dict(victim, price=victim["price"] * 0.5 + low),
                        dict(bystander, price=high * 10.0),
                    ]
                )
            assert [shard._published for shard in federation.shards] == published
            assert victim in first.all_matches(SearchQuery.everything())
            assert bystander in other.all_matches(SearchQuery.everything())
            assert federation.size == len(diamond_catalog)
            assert page() == before == federation.true_ranking(
                query, ranking.score, limit=50
            )
        finally:
            reranker.close()

    def test_deletes_may_be_a_one_shot_iterator(
        self, diamond_catalog, diamond_schema_fixture
    ):
        federation = make_federation(diamond_catalog, diamond_schema_fixture, shards=4)
        doomed = [shard._ranked_rows[1]["id"] for shard in federation.shards[:3]]
        delta = federation.apply_delta(deletes=(key for key in doomed))
        assert (delta.deletes, delta.upserts) == (3, 0)
        assert delta.keys == frozenset(doomed)
        assert federation.size == len(diamond_catalog) - 3
        with pytest.raises(QueryError):
            federation.apply_delta(deletes=[doomed[0]])
        survivor = federation.shards[3]._ranked_rows[0]["id"]
        with pytest.raises(QueryError):
            federation.apply_delta(deletes=[survivor, survivor])
        assert federation.has_key(survivor)

    def test_key_upserted_twice_lands_on_one_shard(
        self, diamond_catalog, diamond_schema_fixture
    ):
        """Two versions of one key whose prices belong to different
        partitions: only the last is routed, so the key lives exactly once."""
        federation = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=4, by="price"
        )
        cheap = dict(federation.shards[0]._ranked_rows[0])
        middle = dict(cheap, price=float(federation.shards[2]._ranked_rows[0]["price"]))
        dear = dict(cheap, price=float(federation.shards[3]._ranked_rows[0]["price"]))
        federation.apply_delta(upserts=[middle, dear])
        assert [shard.has_key(cheap["id"]) for shard in federation.shards] == [
            False, False, False, True,
        ]
        assert federation.size == len(diamond_catalog)
        assert dear in federation.shards[3].all_matches(SearchQuery.everything())


SKEW_SCHEMA = Schema(
    key="id",
    attributes=(
        Attribute.numeric("price", 0, 1000),
        Attribute.numeric("weight", 0, 10),
    ),
)


@pytest.mark.parametrize(
    "shards, by, seed",
    [(2, "rank", 612), (2, "price", 41), (4, "rank", 5), (4, "price", 20180612)],
)
def test_reranker_over_federation_matches_unsharded(
    diamond_catalog, diamond_schema_fixture, reference_db, shards, by, seed
):
    """The algorithms cannot see the shard layer: a drawn request pages
    identically over a federation.  It costs at most the unsharded session's
    external queries — a query every shard answers from its cache costs none
    — and exactly the scatters that reached a shard."""
    request = draw_request(random.Random(seed), diamond_schema_fixture)
    config = RerankConfig()
    cache = QueryResultCache()
    federation = make_federation(
        diamond_catalog, diamond_schema_fixture, shards=shards, by=by, result_cache=cache
    )
    unsharded = QueryReranker(reference_db, config=config)
    sharded = QueryReranker(federation, config=config, result_cache=cache)
    try:
        expected_pages, expected_queries = page_through(unsharded, request)
        pages, queries = page_through(sharded, request)
    finally:
        unsharded.close()
        sharded.close()
    assert pages == expected_pages and pages[0]
    assert 0 < queries <= expected_queries
    described = federation.describe()
    assert queries == described["scatter_queries"]
    assert described["shard_queries"] >= queries


def skewed_catalog() -> ColumnTable:
    """120 tuples, 80 % of them sharing ``weight == 5.0``: three requested
    quantile cuts collapse to one distinct cut, hence two shards."""
    rng = random.Random(17)
    rows = []
    for i in range(120):
        weight = 5.0 if i % 5 else round(rng.uniform(0.0, 10.0), 3)
        rows.append({"id": f"s{i:03d}", "price": round(rng.uniform(1, 999), 2), "weight": weight})
    return ColumnTable.from_rows(rows)


def shard_databases(source):
    """The databases behind a built source, whatever its topology."""
    if isinstance(source, FederatedInterface):
        return source.shards
    assert isinstance(source, SourceStack)
    return [source.database]


class TestBuildSourceOnePipeline:
    """A ``ColumnTable`` and a ``SQLiteTupleStore`` holding the same rows go
    through the same pipeline: the input kind is a loading strategy, never a
    semantic change — shard for shard, page for page, second for second."""

    TOPOLOGIES = {
        "unsharded": ("diamonds", 1, "rank", 1),
        "rank-3": ("diamonds", 3, "rank", 3),
        "price-3": ("diamonds", 3, "price", 3),
        "skewed-3": ("skewed", 3, "weight", 2),
    }

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_table_and_store_build_the_same_source(
        self, topology, diamond_catalog, diamond_schema_fixture
    ):
        data, shards, by, expected_shards = self.TOPOLOGIES[topology]
        if data == "diamonds":
            catalog, schema, ranking = diamond_catalog, diamond_schema_fixture, RANKING
        else:
            catalog, schema = skewed_catalog(), SKEW_SCHEMA
            ranking = FeaturedScoreRanking("price", boost_weight=50.0)
        config = DatabaseConfig(
            system_k=10, latency_seconds=1.0, seed=5, shards=shards, shard_by=by
        )
        store = SQLiteTupleStore(schema)
        try:
            store.upsert(catalog.to_rows())
            built = [
                build_source(rows, schema, ranking, config, name="one")
                for rows in (catalog, store)
            ]
        finally:
            store.close()
        from_table, from_store = (shard_databases(source) for source in built)
        names = ["one"] if shards == 1 else [f"one#{i}" for i in range(expected_shards)]
        assert [db.name for db in from_table] == [db.name for db in from_store] == names
        for index, (table_db, store_db) in enumerate(zip(from_table, from_store)):
            assert [list(row.items()) for row in store_db._ranked_rows] == [
                list(row.items()) for row in table_db._ranked_rows
            ]
            # Latency seeds are a pure function of the shard index.
            assert table_db._latency.seed == store_db._latency.seed == 5 + index
            # The production layout is observed, whatever the input kind.
            assert table_db.columnar_backend == store_db.columnar_backend == (
                arrays.resolve_backend("buffer")
            )
        assert sorted(
            row["id"] for db in from_table for row in db._ranked_rows
        ) == sorted(row["id"] for row in catalog)
        if shards > 1:
            partitions = [source._partitions for source in built]
            assert partitions[0] == partitions[1]
            assert (partitions[0] is None) == (by == "rank")
        reference = HiddenWebDatabase(catalog, schema, ranking, system_k=10)
        rng = random.Random(3)
        low, high = schema.domain_bounds("price")
        seconds = [0.0, 0.0]
        for _ in range(25):
            lower = rng.uniform(low, high * 0.6)
            query = SearchQuery(
                (RangePredicate("price", lower, min(high, lower * rng.uniform(1.1, 2.5))),)
            )
            expected = reference.search(query)
            for slot, source in enumerate(built):
                actual = source.search(query)
                seconds[slot] += actual.elapsed_seconds
                assert actual.outcome is expected.outcome
                assert [list(row.items()) for row in actual.rows] == [
                    list(row.items()) for row in expected.rows
                ]
        assert seconds[0] == seconds[1] > 0.0


class TestBuildSourceValidation:
    """The checks of the two former pipelines survive their merge."""

    def test_invalid_row_in_table_rejected(self, diamond_catalog, diamond_schema_fixture):
        rows = diamond_catalog.to_rows()[:20]
        rows[7] = dict(rows[7], carat=-4.0)  # outside the attribute domain
        with pytest.raises(SchemaError):
            build_source(
                ColumnTable.from_rows(rows), diamond_schema_fixture, RANKING,
                DatabaseConfig(system_k=10, shards=2), name="bad",
            )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_duplicate_key_in_table_rejected(
        self, diamond_catalog, diamond_schema_fixture, shards
    ):
        # The two copies rank next to each other, so round-robin deals them
        # to different shards: no single shard sees a duplicate.
        rows = diamond_catalog.to_rows()[:2]
        rows.append(dict(rows[0]))
        with pytest.raises(QueryError):
            build_source(
                ColumnTable.from_rows(rows), diamond_schema_fixture, RANKING,
                DatabaseConfig(system_k=10, shards=shards), name="dup",
            )

    @pytest.mark.parametrize(
        "config, error",
        [
            (DatabaseConfig(shards=0), QueryError),
            (DatabaseConfig(shards=-2), QueryError),
            # As at every commit before: the schema, not the partitioner,
            # rejects a categorical partition attribute.
            (DatabaseConfig(shards=2, shard_by="cut"), SchemaError),
        ],
        ids=["zero-shards", "negative-shards", "categorical-shard-by"],
    )
    def test_bad_topology_rejected(
        self, diamond_catalog, diamond_schema_fixture, config, error
    ):
        with pytest.raises(error):
            build_source(
                diamond_catalog, diamond_schema_fixture, RANKING, config, name="bad"
            )

    def test_empty_catalog_under_attribute_partitioning_rejected(
        self, diamond_catalog, diamond_schema_fixture
    ):
        with pytest.raises(QueryError):
            build_source(
                ColumnTable.empty(diamond_catalog.columns), diamond_schema_fixture,
                RANKING, DatabaseConfig(shards=2, shard_by="price"), name="empty",
            )
