"""Tests for the sharded catalog partitioner and the federated interface."""

import pytest

from repro.exceptions import QueryError
from repro.webdb.cache import QueryResultCache
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.federation import (
    FederatedInterface,
    ShardSpec,
    ShardedCatalog,
    build_federation,
)
from repro.webdb.interface import Outcome
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking


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
    kwargs.setdefault("system_k", 10)
    kwargs.setdefault("name", "fedtest")
    return build_federation(
        catalog=catalog, schema=schema, system_ranking=RANKING,
        shards=shards, by=by, **kwargs,
    )


class TestShardConfig:
    def test_with_shards_copies(self):
        from repro.config import DatabaseConfig

        config = DatabaseConfig().with_shards(4, by="price")
        assert (config.shards, config.shard_by) == (4, "price")
        assert DatabaseConfig().shards == 1


class TestShardedCatalog:
    def test_rank_partition_is_disjoint_and_complete(
        self, diamond_catalog, diamond_schema_fixture
    ):
        sharded = ShardedCatalog.partition(
            diamond_catalog, diamond_schema_fixture, RANKING, shards=3
        )
        assert sharded.shard_count == 3
        assert sharded.partitions is None
        keys = [
            row["id"] for table in sharded.tables for row in table.to_rows()
        ]
        assert len(keys) == len(set(keys)) == len(diamond_catalog.to_rows())

    def test_rank_partition_interleaves_hidden_ranks(
        self, diamond_catalog, diamond_schema_fixture
    ):
        # Round-robin over hidden-rank order: the globally best tuple lands in
        # shard 0, the second best in shard 1, and so on.
        sharded = ShardedCatalog.partition(
            diamond_catalog, diamond_schema_fixture, RANKING, shards=2
        )
        ranked = sorted(
            diamond_catalog.to_rows(),
            key=RANKING.sort_key(diamond_schema_fixture.key),
        )
        shard0_keys = {row["id"] for row in sharded.tables[0].to_rows()}
        assert ranked[0]["id"] in shard0_keys
        assert ranked[1]["id"] not in shard0_keys

    def test_attribute_partition_ranges_are_disjoint(
        self, diamond_catalog, diamond_schema_fixture
    ):
        sharded = ShardedCatalog.partition(
            diamond_catalog, diamond_schema_fixture, RANKING, shards=4, by="price"
        )
        assert sharded.partitions is not None
        # Every tuple sits inside its own shard's owned range.
        for table, partition in zip(sharded.tables, sharded.partitions):
            assert partition is not None
            for row in table.to_rows():
                assert partition.matches(float(row[partition.attribute]))
        keys = [row["id"] for table in sharded.tables for row in table.to_rows()]
        assert len(keys) == len(set(keys)) == len(diamond_catalog.to_rows())

    def test_attribute_partition_requires_numeric(
        self, diamond_catalog, diamond_schema_fixture
    ):
        with pytest.raises(Exception):
            ShardedCatalog.partition(
                diamond_catalog, diamond_schema_fixture, RANKING, shards=2, by="cut"
            )

    def test_positive_shard_count_required(
        self, diamond_catalog, diamond_schema_fixture
    ):
        with pytest.raises(QueryError):
            ShardedCatalog.partition(
                diamond_catalog, diamond_schema_fixture, RANKING, shards=0
            )

    def test_shard_spec_may_not_lower_k(self, diamond_catalog, diamond_schema_fixture):
        sharded = ShardedCatalog.partition(
            diamond_catalog, diamond_schema_fixture, RANKING, shards=2
        )
        with pytest.raises(QueryError):
            sharded.build_databases(RANKING, system_k=10, specs=[ShardSpec(system_k=5), None])

    def test_shard_spec_raises_k_and_engine(
        self, diamond_catalog, diamond_schema_fixture
    ):
        sharded = ShardedCatalog.partition(
            diamond_catalog, diamond_schema_fixture, RANKING, shards=2
        )
        databases = sharded.build_databases(
            RANKING,
            system_k=10,
            specs=[ShardSpec(system_k=15, engine="naive"), None],
        )
        assert databases[0].system_k == 15
        assert databases[0].engine_name == "naive"
        assert databases[1].system_k == 10


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
            count = reference.count_matches(candidate)
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

    def test_shard_cache_namespaces(self, diamond_catalog, diamond_schema_fixture):
        cache = QueryResultCache(max_entries=64)
        federation = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=2, result_cache=cache
        )
        assert federation.shard_namespaces == ["fedtest#0", "fedtest#1"]
        query = SearchQuery.everything()
        federation.search(query)
        first_hits = federation.shard_queries_issued()
        federation.search(query)  # served from the per-shard cache
        assert federation.shard_queries_issued() == first_hits
        described = federation.describe()
        assert all(info["cache_hits"] == 1 for info in described["shards"])

    def test_invalidate_shard_is_scoped(self, diamond_catalog, diamond_schema_fixture):
        cache = QueryResultCache(max_entries=64)
        federation = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=2, result_cache=cache
        )
        federation.search(SearchQuery.everything())
        baseline = federation.shard_queries_issued()
        removed = federation.invalidate_shard(0)
        assert removed > 0
        federation.search(SearchQuery.everything())
        # Only shard 0 re-queried; shard 1 still served from its namespace.
        assert federation.shard_queries_issued() == baseline + 1
        with pytest.raises(QueryError):
            federation.invalidate_shard(7)

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


class TestStreamingFederationLoad:
    """``build_federation_from_store`` must produce shard-for-shard the same
    federation the eager ``build_federation`` builds, for both partitioning
    modes — streaming is a loading strategy, never a semantic change."""

    @pytest.fixture()
    def seeded_store(self, diamond_catalog, diamond_schema_fixture):
        from repro.sqlstore.store import SQLiteTupleStore

        store = SQLiteTupleStore(diamond_schema_fixture)
        store.upsert(diamond_catalog.to_rows())
        yield store
        store.close()

    @pytest.mark.parametrize("by", ["rank", "price"])
    def test_streamed_federation_matches_eager(
        self, seeded_store, diamond_catalog, diamond_schema_fixture, by
    ):
        import random

        from repro.webdb.federation import build_federation_from_store
        from repro.webdb.query import RangePredicate

        eager = make_federation(
            diamond_catalog, diamond_schema_fixture, shards=3, by=by,
        )
        streamed = build_federation_from_store(
            seeded_store, diamond_schema_fixture, RANKING,
            shards=3, by=by, name="fedtest", system_k=10, batch_size=73,
        )
        assert len(streamed.shards) == len(eager.shards)
        for eager_shard, streamed_shard in zip(eager.shards, streamed.shards):
            assert streamed_shard.size == eager_shard.size
            assert [dict(row) for row in streamed_shard._ranked_rows] == [
                dict(row) for row in eager_shard._ranked_rows
            ]
        rng = random.Random(3)
        for _ in range(25):
            lower = rng.uniform(200.0, 15000.0)
            query = SearchQuery(
                (RangePredicate("price", lower, lower * rng.uniform(1.1, 2.5)),)
            )
            expected = eager.search(query)
            actual = streamed.search(query)
            assert actual.outcome is expected.outcome
            assert [list(row.items()) for row in actual.rows] == [
                list(row.items()) for row in expected.rows
            ]

    def test_streamed_shards_report_buffer_backend(
        self, seeded_store, diamond_schema_fixture
    ):
        from repro.webdb import arrays
        from repro.webdb.federation import build_federation_from_store

        federation = build_federation_from_store(
            seeded_store, diamond_schema_fixture, RANKING, shards=2,
        )
        resolved = arrays.resolve_backend("buffer")
        for shard in federation.shards:
            assert shard.columnar_backend == resolved
