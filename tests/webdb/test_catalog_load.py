"""The column-wise catalog load against the row-wise oracle.

``stream_sorted_columns`` reads columns and builds no row dictionary;
``tests/reference/catalog_load.py`` keeps the row-at-a-time load it
replaced.  These tests check that both return identical columns — names,
order, values and value types — for every input kind, and that the
column-wise validation rejects a catalog exactly when the row-wise rule
rejects one of its rows.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DatabaseConfig
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.dataset.housing import HousingCatalogConfig, generate_housing_catalog, housing_schema
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable
from repro.exceptions import SchemaError
from repro.sqlstore.store import SQLiteTupleStore
from repro.webdb.build import build_source
from repro.webdb.database import stream_sorted_columns
from repro.webdb.federation import partition_positions
from repro.webdb.ranking import AttributeOrderRanking, FeaturedScoreRanking

from tests.reference import reference_sorted_columns, reference_validate_row

BLUENILE = FeaturedScoreRanking("price", boost_weight=2500.0)
ZILLOW = FeaturedScoreRanking("price", boost_weight=150000.0)


def typed(columns):
    """Columns as ``(name, [(type, value), ...])`` pairs, in order: equal
    only when names, order, values and value types all are."""
    return [(name, [(type(value), value) for value in column]) for name, column in columns.items()]


def default_catalog(which, seed):
    if which == "bluenile":
        return generate_diamond_catalog(DiamondCatalogConfig(seed=seed)), diamond_schema(), BLUENILE
    return generate_housing_catalog(HousingCatalogConfig(seed=seed)), housing_schema(), ZILLOW


@pytest.fixture(scope="module")
def small_store():
    catalog = generate_diamond_catalog(DiamondCatalogConfig(size=600, seed=7))
    store = SQLiteTupleStore(diamond_schema())
    store.upsert(catalog.to_rows())
    yield catalog, store
    store.close()


class TestColumnsEqualTheRowWiseLoad:
    @pytest.mark.parametrize("which", ["bluenile", "zillow"])
    @pytest.mark.parametrize("seed", [2026, 7])
    def test_default_catalogs(self, which, seed):
        """Both default catalogs, validated: the column path hands over the
        table's columns and returns the oracle's columns exactly."""
        catalog, schema, ranking = default_catalog(which, seed)
        assert typed(stream_sorted_columns(catalog, schema, ranking)) == typed(
            reference_sorted_columns(catalog, schema, ranking)
        )

    @pytest.mark.parametrize("validate", [False, True])
    def test_sqlite_store(self, small_store, validate):
        """A store's transposed cursor batches (numeric columns ``float``-ed
        in one pass) equal its rows read one at a time."""
        _, store = small_store
        schema = diamond_schema()
        expected = reference_sorted_columns(store, schema, BLUENILE, validate=validate)
        actual = stream_sorted_columns(store, schema, BLUENILE, validate=validate)
        assert typed(actual) == typed(expected)
        assert len(actual["id"]) == len(store.all_rows())

    def test_row_dictionaries(self, small_store):
        """A list of row dictionaries and a one-shot generator over them are
        transposed once, in the first row's column order."""
        catalog, _ = small_store
        schema = diamond_schema()
        rows = catalog.to_rows()
        rows[0] = {name: rows[0][name] for name in reversed(list(rows[0]))}
        expected = typed(reference_sorted_columns(rows, schema, BLUENILE))
        assert expected[0][0] == "clarity"
        assert typed(stream_sorted_columns(rows, schema, BLUENILE)) == expected
        assert typed(stream_sorted_columns(iter(rows), schema, BLUENILE)) == expected

    def test_empty_inputs(self):
        """No row gives the schema's empty columns from every input kind."""
        schema = diamond_schema()
        store = SQLiteTupleStore(schema)
        expected = typed(reference_sorted_columns([], schema, BLUENILE))
        for empty in (
            [],
            iter([]),
            ColumnTable.empty(list(reversed(schema.columns()))),
            store,
        ):
            assert typed(stream_sorted_columns(empty, schema, BLUENILE)) == expected
        store.close()

    def test_one_row(self):
        """One row is loaded as a one-value column, not unpacked."""
        schema = diamond_schema()
        row = generate_diamond_catalog(DiamondCatalogConfig(size=1, seed=3)).to_rows()
        assert typed(stream_sorted_columns(row, schema, BLUENILE)) == typed(
            reference_sorted_columns(row, schema, BLUENILE)
        )

    @pytest.mark.parametrize("shard_by", ["rank", "price"])
    def test_shard_columns_of_a_four_shard_source(self, shard_by):
        """Every shard of a 4-shard ``build_source`` holds the oracle's
        columns at its bucket's positions."""
        catalog, schema, ranking = default_catalog("bluenile", 2026)
        federation = build_source(
            catalog, schema, ranking, DatabaseConfig(shards=4, shard_by=shard_by), name="load"
        )
        expected = reference_sorted_columns(catalog, schema, ranking)
        buckets, _ = partition_positions(expected, schema, 4, shard_by)
        assert len(federation.shards) == len(buckets) == 4
        for shard, bucket in zip(federation.shards, buckets):
            columnar = shard._columnar
            actual = {name: list(columnar.raw_column(name)) for name in columnar.column_order}
            assert typed(actual) == typed(
                {name: [column[i] for i in bucket] for name, column in expected.items()}
            )


# --------------------------------------------------------------------- #
# Column-wise validation rejects exactly what the row-wise rule rejects
# --------------------------------------------------------------------- #
SCHEMA = Schema(
    key="id",
    attributes=(
        Attribute.numeric("price", 0, 100),
        Attribute.numeric("carat", 0, 5),
        Attribute.categorical("cut", ["good", "ideal"]),
    ),
)
RANKING = AttributeOrderRanking("price")
ODD_NUMBERS = [math.nan, math.inf, -math.inf, None, "5", "", True, False, -1, 101, 5.000001]


def numbers(lower, upper):
    """Values for a numeric column: mostly inside the domain (floats, ints,
    the bounds themselves), sometimes NaN, ±inf, ``bool``, ``None``, a
    string or a value just outside."""
    return st.one_of(
        st.floats(lower, upper),
        st.floats(lower, upper),
        st.integers(int(lower), int(upper)),
        st.sampled_from([float(lower), float(upper), lower, upper]),
        st.sampled_from(ODD_NUMBERS),
    )


@st.composite
def catalogs(draw):
    """A few rows, each maybe missing one column (the key or an attribute)."""
    rows = []
    for index in range(draw(st.integers(1, 5))):
        row = {
            "id": f"t{index}",
            "price": draw(numbers(0, 100)),
            "carat": draw(numbers(0, 5)),
            "cut": draw(st.sampled_from(["good", "ideal", "good", "fair", None, 1])),
        }
        missing = draw(st.sampled_from([None] * 12 + ["id", "price", "cut"]))
        if missing is not None:
            del row[missing]
        rows.append(row)
    return rows


def rejects(load) -> bool:
    try:
        load()
    except SchemaError:
        return True
    return False


class TestColumnValidation:
    @given(catalogs())
    @settings(max_examples=300, deadline=None)
    def test_rejects_exactly_what_the_row_wise_rule_rejects(self, rows):
        """``SchemaError`` from the column-wise load exactly when some row
        fails the per-value oracle rule, which is also exactly when some row
        fails ``Schema.validate_row`` (the one-row case of
        ``validate_columns``); an accepted catalog loads to the oracle's
        columns, from a list and, when every row is whole, from a table."""
        expected = rejects(lambda: [reference_validate_row(SCHEMA, row) for row in rows])
        assert rejects(lambda: [SCHEMA.validate_row(row) for row in rows]) == expected
        assert rejects(lambda: reference_sorted_columns(rows, SCHEMA, RANKING)) == expected
        assert rejects(lambda: stream_sorted_columns(rows, SCHEMA, RANKING)) == expected
        if expected:
            return
        oracle = typed(reference_sorted_columns(rows, SCHEMA, RANKING))
        assert typed(stream_sorted_columns(rows, SCHEMA, RANKING)) == oracle
        table = ColumnTable.from_rows(rows, SCHEMA.columns())
        assert typed(stream_sorted_columns(table, SCHEMA, RANKING)) == oracle

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "5", 100.5, -0.01, True, False])
    def test_each_odd_numeric_value_is_rejected(self, value):
        rows = [{"id": "a", "price": 1.0, "carat": 1.0, "cut": "good"},
                {"id": "b", "price": value, "carat": 1.0, "cut": "good"}]
        with pytest.raises(SchemaError, match="outside domain of attribute 'price'"):
            stream_sorted_columns(rows, SCHEMA, RANKING)

    @pytest.mark.parametrize("value", [0, 100, 0.0, 100.0])
    def test_ints_and_the_closed_bounds_pass(self, value):
        rows = [{"id": "a", "price": value, "carat": 1.0, "cut": "good"}]
        assert stream_sorted_columns(rows, SCHEMA, RANKING)["price"] == [value]

    @pytest.mark.parametrize("missing", ["id", "carat"])
    def test_a_column_missing_from_a_later_row_is_rejected(self, missing):
        whole = {"id": "a", "price": 1.0, "carat": 1.0, "cut": "good"}
        holed = {name: value for name, value in dict(whole, id="b").items() if name != missing}
        for rows in ([whole, holed], [holed, whole]):
            with pytest.raises(SchemaError, match="missing"):
                stream_sorted_columns(rows, SCHEMA, RANKING)
