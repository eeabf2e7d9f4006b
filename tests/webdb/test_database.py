"""Tests for the simulated hidden web database and the top-k contract."""

import pytest

from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable
from repro.exceptions import QueryError
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.interface import Outcome
from repro.webdb.latency import LatencyModel
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import AttributeOrderRanking
from repro.webdb.stack import SourceStack


@pytest.fixture()
def tiny_db() -> HiddenWebDatabase:
    schema = Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", 0, 100),
            Attribute.numeric("size", 0, 10),
            Attribute.categorical("kind", ["x", "y"]),
        ),
    )
    rows = [
        {"id": f"t{i}", "price": float(i), "size": float(i % 10), "kind": "x" if i % 2 else "y"}
        for i in range(30)
    ]
    return HiddenWebDatabase(
        ColumnTable.from_rows(rows),
        schema,
        AttributeOrderRanking("price", ascending=True),
        system_k=5,
    )


class TestTopKContract:
    def test_overflow_returns_exactly_k_in_system_order(self, tiny_db):
        result = tiny_db.search(SearchQuery.everything())
        assert result.outcome is Outcome.OVERFLOW
        assert len(result.rows) == 5
        prices = [row["price"] for row in result.rows]
        assert prices == sorted(prices)  # hidden ranking is price ascending
        assert result.is_overflow and not result.covers_query

    def test_valid_returns_all_matches(self, tiny_db):
        query = SearchQuery.build(ranges={"price": (0, 3)})
        result = tiny_db.search(query)
        assert result.outcome is Outcome.VALID
        assert len(result.rows) == 4
        assert result.covers_query

    def test_underflow(self, tiny_db):
        query = SearchQuery.build(ranges={"price": (1000, 2000)})
        # 1000 > domain upper bound -> schema validation fails; use a narrow
        # in-domain range with no tuples instead.
        query = SearchQuery.build(ranges={"price": (50.5, 50.7)})
        result = tiny_db.search(query)
        assert result.outcome is Outcome.UNDERFLOW
        assert len(result.rows) == 0
        assert result.covers_query

    def test_results_respect_filters(self, tiny_db):
        query = SearchQuery.build(ranges={"price": (0, 20)}, memberships={"kind": ["x"]})
        result = tiny_db.search(query)
        for row in result.rows:
            assert row["kind"] == "x" and row["price"] <= 20

    def test_rows_are_read_only(self, tiny_db):
        result = tiny_db.search(SearchQuery.build(ranges={"price": (0, 3)}))
        with pytest.raises(TypeError):
            result.rows[0]["price"] = -1.0
        again = tiny_db.search(SearchQuery.build(ranges={"price": (0, 3)}))
        assert again.rows[0]["price"] >= 0

    def test_query_counter_increments(self, tiny_db):
        before = tiny_db.queries_issued()
        tiny_db.search(SearchQuery.everything())
        tiny_db.search(SearchQuery.everything())
        assert tiny_db.queries_issued() == before + 2
        tiny_db.reset_query_count()
        assert tiny_db.queries_issued() == 0

    def test_invalid_query_rejected(self, tiny_db):
        with pytest.raises(Exception):
            tiny_db.search(SearchQuery.build(ranges={"missing": (0, 1)}))

    def test_invalid_system_k(self, tiny_db, diamond_catalog, diamond_schema_fixture):
        with pytest.raises(ValueError):
            HiddenWebDatabase(
                diamond_catalog,
                diamond_schema_fixture,
                AttributeOrderRanking("price"),
                system_k=0,
            )

    def test_duplicate_keys_rejected(self):
        schema = Schema(key="id", attributes=(Attribute.numeric("price", 0, 10),))
        rows = [{"id": "same", "price": 1.0}, {"id": "same", "price": 2.0}]
        with pytest.raises(QueryError):
            HiddenWebDatabase(
                ColumnTable.from_rows(rows), schema, AttributeOrderRanking("price")
            )


class TestGroundTruthHelpers:
    def test_all_matches_and_count(self, tiny_db):
        query = SearchQuery.build(ranges={"price": (0, 9)})
        assert len(tiny_db.all_matches(query)) == 10

    def test_true_ranking_orders_by_score(self, tiny_db):
        query = SearchQuery.everything()
        truth = tiny_db.true_ranking(query, lambda row: -row["price"], limit=3)
        assert [row["id"] for row in truth] == ["t29", "t28", "t27"]

    def test_row_by_key(self, tiny_db):
        rows = {row["id"]: row for row in tiny_db.all_matches(SearchQuery.everything())}
        assert rows["t3"]["price"] == 3.0
        assert "nope" not in rows and not tiny_db.has_key("nope")

    def test_attribute_values_and_multiplicity(self, tiny_db):
        values = tiny_db.attribute_values("size")
        assert len(values) == 30
        multiplicity = tiny_db.value_multiplicity("size")
        assert multiplicity[0.0] == 3

    def test_system_rank(self, tiny_db):
        ranked = tiny_db.all_matches(SearchQuery.everything())
        assert ranked[0]["id"] == "t0" and len(ranked) == tiny_db.size

    def test_describe(self, tiny_db):
        text = tiny_db.describe()
        assert "30 tuples" in text and "k=5" in text

    def test_latency_free_and_timed_pair(self, diamond_catalog, diamond_schema_fixture):
        # Two databases over one catalog: one latency-free for ground truth,
        # one with accounting latency for timing experiments.
        ranking = AttributeOrderRanking("price")
        live = HiddenWebDatabase(
            diamond_catalog, diamond_schema_fixture, ranking, system_k=10, name="live"
        )
        timed = HiddenWebDatabase(
            diamond_catalog, diamond_schema_fixture, ranking, system_k=10,
            latency=LatencyModel.accounted(1.0), name="timed",
        )
        assert live.search(SearchQuery.everything()).elapsed_seconds == 0.0
        assert timed.search(SearchQuery.everything()).elapsed_seconds > 0.0


class TestLatencyAccounting:
    def test_latency_recorded_in_results(self, diamond_catalog, diamond_schema_fixture):
        database = HiddenWebDatabase(
            diamond_catalog,
            diamond_schema_fixture,
            AttributeOrderRanking("price"),
            system_k=10,
            latency=LatencyModel.accounted(2.0, jitter=0.0),
        )
        result = database.search(SearchQuery.everything())
        assert result.elapsed_seconds == pytest.approx(2.0)


class TestInstrumentedInterface:
    """The source stack is what instruments a database's interface."""

    def test_statistics_accumulate(self, tiny_db):
        wrapped = SourceStack(tiny_db)
        wrapped.search(SearchQuery.everything())
        wrapped.search(SearchQuery.build(ranges={"price": (0, 2)}))
        wrapped.search(SearchQuery.build(ranges={"price": (50.5, 50.7)}))
        stats = wrapped.statistics.snapshot()
        assert stats == {"queries": 3, "rows_returned": 5 + 3, "elapsed_seconds": 0.0}
        assert wrapped.queries_issued() == 3

    def test_properties_delegate(self, tiny_db):
        wrapped = SourceStack(tiny_db)
        assert wrapped.schema is tiny_db.schema
        assert wrapped.system_k == tiny_db.system_k
        assert wrapped.key_column == "id"
        assert wrapped.database is tiny_db
        assert wrapped.name == tiny_db.name
        # Site operations are not forwarded: they are called on the site.
        assert not hasattr(wrapped, "size") and not hasattr(wrapped, "has_key")
        assert tiny_db.has_key("t0")


class TestStreamingCatalogLoad:
    """A catalog streamed out of a SQLite store is observationally identical
    to one built from a ``ColumnTable``: same rows in the same hidden-rank
    order, same describe() surface — while never materializing the catalog
    as a list of row dictionaries.  (Page-for-page equivalence across
    topologies: ``test_federation.TestBuildSourceOnePipeline``.)"""

    @pytest.fixture()
    def seeded_store(self, diamond_catalog, diamond_schema_fixture):
        from repro.sqlstore.store import SQLiteTupleStore

        store = SQLiteTupleStore(diamond_schema_fixture)
        store.upsert(diamond_catalog.to_rows())
        yield store
        store.close()

    @pytest.mark.parametrize("source", ["table", "store"])
    def test_stream_sorted_columns_is_rank_ordered(
        self, seeded_store, diamond_catalog, diamond_schema_fixture, source
    ):
        from repro.webdb.database import stream_sorted_columns
        from repro.webdb.ranking import FeaturedScoreRanking

        ranking = FeaturedScoreRanking("price", boost_weight=2500.0)
        rows_in = diamond_catalog if source == "table" else seeded_store
        columns = stream_sorted_columns(
            rows_in, diamond_schema_fixture, ranking, validate=source == "table"
        )
        assert list(columns) == diamond_catalog.columns
        size = len(columns["id"])
        rows = [
            {name: columns[name][i] for name in diamond_schema_fixture.columns()}
            for i in range(size)
        ]
        key_of = ranking.sort_key(diamond_schema_fixture.key)
        assert rows == sorted(rows, key=key_of)
        assert size == len(seeded_store.all_rows())

    @pytest.mark.parametrize("backend", ["list", "array", "buffer"])
    def test_streamed_layouts_match_the_reference_scan(
        self, seeded_store, diamond_schema_fixture, backend
    ):
        """Every storage layout of a streamed catalog answers byte for byte
        like the naive scan over the pure-Python list layout."""
        import random

        from repro.webdb.database import stream_sorted_columns
        from repro.webdb.indexes import ColumnarCatalog
        from repro.webdb.query import RangePredicate
        from repro.webdb.ranking import FeaturedScoreRanking
        from tests.reference import NaiveScanDatabase

        schema = diamond_schema_fixture
        ranking = FeaturedScoreRanking("price", boost_weight=2500.0)
        columns = stream_sorted_columns(seeded_store, schema, ranking, validate=False)

        def wrap(cls, layout, name):
            catalog = ColumnarCatalog.from_columns(
                columns, list(columns), schema.key, backend=layout
            )
            return cls.from_columnar(catalog, schema, ranking, system_k=10, name=name)

        reference = wrap(NaiveScanDatabase, "list", "reference")
        subject = wrap(HiddenWebDatabase, backend, "subject")
        assert (reference.engine_name, subject.engine_name) == ("naive", "indexed")
        assert subject.size == reference.size == len(seeded_store.all_rows())
        rng = random.Random(5)
        for _ in range(40):
            lower = rng.uniform(200.0, 18000.0)
            query = SearchQuery(
                (RangePredicate("price", lower, lower * rng.uniform(1.05, 2.0)),)
            )
            expected = reference.search(query)
            actual = subject.search(query)
            assert actual.outcome is expected.outcome
            assert [list(row.items()) for row in actual.rows] == [
                list(row.items()) for row in expected.rows
            ]

    def test_invalid_row_rejected_while_streaming(self, diamond_schema_fixture):
        from repro.exceptions import SchemaError
        from repro.webdb.database import stream_sorted_columns

        with pytest.raises(SchemaError):
            stream_sorted_columns(
                [{"id": "only-a-key"}], diamond_schema_fixture,
                AttributeOrderRanking("price"),
            )

    def test_streamed_database_supports_ground_truth_helpers(
        self, seeded_store, diamond_schema_fixture
    ):
        from repro.config import DatabaseConfig
        from repro.webdb.build import build_source

        streamed = build_source(
            seeded_store, diamond_schema_fixture,
            AttributeOrderRanking("price", ascending=True),
            DatabaseConfig(system_k=10), name="streamed",
        ).database
        values = streamed.attribute_values("price")
        assert len(values) == streamed.size
        ranked = streamed.all_matches(SearchQuery.everything())
        assert len(ranked) == streamed.size and ranked[0]["price"] == min(values)
        assert "backend=" in streamed.describe() and "engine=indexed" in streamed.describe()


class TestGroundTruthMemoization:
    def test_attribute_values_returns_defensive_copies(self, tiny_db):
        first = tiny_db.attribute_values("price")
        first.append(-1.0)
        assert -1.0 not in tiny_db.attribute_values("price")
        histogram = tiny_db.value_multiplicity("price")
        histogram[123.456] = 99
        assert 123.456 not in tiny_db.value_multiplicity("price")

    def test_apply_delta_invalidates_memos(self, diamond_catalog, diamond_schema_fixture):
        database = HiddenWebDatabase(
            diamond_catalog, diamond_schema_fixture,
            AttributeOrderRanking("price", ascending=True),
            system_k=10, name="memo-db",
        )
        before_values = database.attribute_values("price")
        before_histogram = database.value_multiplicity("price")
        victim = dict(database._ranked_rows[0])
        new_price = max(before_values) + 17.0
        database.apply_delta(upserts=[dict(victim, price=new_price)])
        after_values = database.attribute_values("price")
        assert new_price in after_values
        assert sorted(after_values) != sorted(before_values)
        after_histogram = database.value_multiplicity("price")
        assert after_histogram.get(new_price, 0) >= 1
        assert after_histogram != before_histogram


class TestDeltaApplication:
    """``apply_delta`` costs what it touches and never disturbs a reader:
    the machine-independent guards beside the oracle differential in
    ``tests/test_properties.py``."""

    @staticmethod
    def repricing_db(size, ranking, backend="buffer"):
        from repro.webdb.database import stream_sorted_columns
        from tests.reference import database_on_layout

        schema = Schema(
            key="id",
            attributes=(
                Attribute.numeric("price", 0, 10_000),
                Attribute.numeric("stock", 0, 9),
                Attribute.categorical("kind", ["x", "y"]),
            ),
        )
        rows = [
            {"id": f"t{i}", "price": float((i * 7919) % 9973), "stock": i % 10,
             "kind": "xy"[i % 2]}
            for i in range(size)
        ]
        columns = stream_sorted_columns(rows, schema, ranking, validate=False)
        return database_on_layout(
            HiddenWebDatabase, columns, schema, ranking, backend, system_k=5, name="delta"
        )

    def test_repricing_work_is_bounded_by_the_change(self, monkeypatch):
        """A 100-row repricing of 20 000 tuples scores and materializes
        ``d * (2 + ceil(log2 n))`` rows at most — not the catalog."""
        from repro.webdb.indexes import ColumnarCatalog
        from repro.webdb.ranking import FeaturedScoreRanking

        class CountingRanking(FeaturedScoreRanking):
            calls = 0

            def score(self, row):
                self.calls += 1
                return super().score(row)

        ranking = CountingRanking("price", boost_weight=25.0)
        database = self.repricing_db(20_000, ranking)
        victims = [dict(database._ranked_rows[rank]) for rank in range(5_000, 5_100)]
        materialized = []
        materialize = ColumnarCatalog.materialize

        def counting_materialize(catalog, rank):
            materialized.append(rank)
            return materialize(catalog, rank)

        monkeypatch.setattr(ColumnarCatalog, "materialize", counting_materialize)
        ranking.calls = 0
        delta = database.apply_delta(
            upserts=[dict(row, price=row["price"] * 0.5) for row in victims]
        )
        assert len(delta.keys) == 100 and database.size == 20_000
        assert 100 <= ranking.calls <= 1_700
        assert 100 <= len(materialized) <= 1_900
        monkeypatch.undo()
        scores = [ranking.score(row) for row in database._ranked_rows[2_000:2_200]]
        assert scores == sorted(scores)

    @pytest.mark.parametrize("backend", ["list", "array", "buffer"])
    def test_repricing_materializes_only_the_leaving_versions(self, monkeypatch, backend):
        """The insertion bisect reads the hidden ranking's inputs from the
        columns: a 100-row repricing materializes the 100 versions it
        replaces (they go into the delta) and nothing else."""
        from repro.webdb.indexes import ColumnarCatalog
        from repro.webdb.ranking import FeaturedScoreRanking

        ranking = FeaturedScoreRanking("price", boost_weight=25.0)
        database = self.repricing_db(5_000, ranking, backend)
        victims = [dict(database._ranked_rows[rank]) for rank in range(1_000, 1_100)]
        materialized = []
        materialize = ColumnarCatalog.materialize

        def counting_materialize(catalog, rank):
            materialized.append(rank)
            return materialize(catalog, rank)

        monkeypatch.setattr(ColumnarCatalog, "materialize", counting_materialize)
        delta = database.apply_delta(
            upserts=[dict(row, price=row["price"] * 0.5) for row in victims]
        )
        assert sorted(materialized) == list(range(1_000, 1_100))
        assert len(delta.versions) == 200
        monkeypatch.undo()
        sort_key = ranking.sort_key("id")
        keys = [sort_key(row) for row in database._ranked_rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("backend", ["list", "array", "buffer"])
    def test_a_reader_keeps_the_snapshot_it_started_with(self, backend):
        """The published ``(catalog, engine)`` pair taken before a delta
        still answers the old catalog afterwards, and none of its columns
        was touched: the successor is built beside it, never in place."""
        database = self.repricing_db(300, AttributeOrderRanking("price"), backend)
        queries = [
            SearchQuery.everything(),
            SearchQuery.build(ranges={"price": (1_000, 6_000)}),
            SearchQuery.build(ranges={"stock": (2, 4)}, memberships={"kind": ["x"]}),
        ]
        columnar, engine = database._published
        for query in queries:
            engine.execute(query, 5)  # build the old snapshot's lazy indexes
        old_columns = {
            name: (columnar.raw_column(name), list(columnar.raw_column(name)))
            for name in columnar.column_order
        }
        old_ranks = dict(columnar.rank_of)
        old_pages = [engine.execute(query, 5) for query in queries]
        first, last = database._ranked_rows[0], database._ranked_rows[299]
        database.apply_delta(
            upserts=[dict(first, price=9_999.0), dict(first, id="fresh", price=0.0)],
            deletes=[last["id"], database._ranked_rows[150]["id"]],
        )
        assert database._published[0] is not columnar
        assert database._published[1] is not engine
        assert database.search(queries[0]).rows[0]["id"] == "fresh"
        assert [engine.execute(query, 5) for query in queries] == old_pages
        assert columnar.size == 300 and columnar.rank_of == old_ranks
        for name, (column, values) in old_columns.items():
            assert columnar.raw_column(name) is column
            assert list(column) == values

    def test_deletes_may_be_a_one_shot_iterator(self, tiny_db):
        doomed = ["t3", "t4", "t9"]
        delta = tiny_db.apply_delta(deletes=(key for key in doomed))
        assert (delta.deletes, delta.upserts, tiny_db.size) == (3, 0, 27)
        assert delta.keys == frozenset(doomed)
        assert not any(tiny_db.has_key(key) for key in doomed)

    def test_failed_delta_leaves_the_catalog_serving(self, tiny_db):
        from repro.exceptions import SchemaError

        published = tiny_db._published
        (t1,) = tiny_db.all_matches(SearchQuery.build(ranges={"price": (1.0, 1.0)}))
        good = dict(t1, price=50.0)
        for arguments, error in [
            (dict(deletes=["t1", "nope"]), QueryError),
            (dict(deletes=["t1", "t1"]), QueryError),
            (dict(upserts=[good, dict(good, price=-1.0)]), SchemaError),
        ]:
            with pytest.raises(error):
                tiny_db.apply_delta(**arguments)
            assert tiny_db._published is published
        assert tiny_db.apply_delta().is_empty and tiny_db._published is published
