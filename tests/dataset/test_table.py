"""Tests for the lightweight columnar table."""

import pytest

from repro.dataset.table import ColumnTable, format_grid
from repro.exceptions import SchemaError
from tests.reference import reference_text_grid


@pytest.fixture()
def table() -> ColumnTable:
    return ColumnTable(
        {
            "id": ["a", "b", "c", "d"],
            "price": [10.0, 40.0, 20.0, 30.0],
            "cut": ["good", "ideal", "good", "ideal"],
        }
    )


class TestConstruction:
    def test_from_rows_roundtrip(self, table):
        rebuilt = ColumnTable.from_rows(table.to_rows())
        assert rebuilt == table

    def test_from_rows_with_explicit_columns(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        built = ColumnTable.from_rows(rows, columns=["b", "a"])
        assert built.columns == ["b", "a"]

    def test_from_rows_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            ColumnTable.from_rows([{"a": 1}], columns=["a", "b"])

    def test_empty_requires_columns(self):
        table = ColumnTable.empty(["a", "b"])
        assert len(table) == 0
        assert not table

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            ColumnTable({"a": [1, 2], "b": [1]})

    def test_zero_columns_rejected(self):
        with pytest.raises(SchemaError):
            ColumnTable({})

    def test_from_rows_empty_without_columns_rejected(self):
        with pytest.raises(SchemaError):
            ColumnTable.from_rows([])


class TestAccess:
    def test_len_and_bool(self, table):
        assert len(table) == 4
        assert table

    def test_row_access_and_negative_index(self, table):
        assert table.row(0)["id"] == "a"
        assert table.row(-1)["id"] == "d"
        with pytest.raises(IndexError):
            table.row(10)

    def test_column_returns_copy(self, table):
        column = table.column("price")
        column[0] = 999
        assert table.column("price")[0] == 10.0

    def test_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.column("missing")

    def test_iteration_yields_dict_rows(self, table):
        ids = [row["id"] for row in table]
        assert ids == ["a", "b", "c", "d"]


class TestRelationalOps:
    def test_select(self, table):
        projected = table.select(["price", "id"])
        assert projected.columns == ["price", "id"]
        assert len(projected) == 4

    def test_select_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.select(["missing"])

    def test_filter(self, table):
        cheap = table.filter(lambda row: row["price"] < 25)
        assert sorted(cheap.column("id")) == ["a", "c"]

    def test_filter_to_empty_keeps_columns(self, table):
        empty = table.filter(lambda row: False)
        assert len(empty) == 0
        assert empty.columns == table.columns

    def test_sort_by(self, table):
        ordered = table.sort_by(lambda row: row["price"])
        assert ordered.column("id") == ["a", "c", "d", "b"]

    def test_sort_by_reverse(self, table):
        ordered = table.sort_by(lambda row: row["price"], reverse=True)
        assert ordered.column("id") == ["b", "d", "c", "a"]

    def test_head(self, table):
        assert table.head(2).column("id") == ["a", "b"]
        assert len(table.head(0)) == 0
        with pytest.raises(ValueError):
            table.head(-1)

    def test_append_rows(self, table):
        grown = table.append_rows([{"id": "e", "price": 5.0, "cut": "good"}])
        assert len(grown) == 5
        assert len(table) == 4  # original untouched

    def test_distinct(self):
        table = ColumnTable({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert len(table.distinct()) == 2
        assert len(table.distinct(["b"])) == 2

    def test_rename(self, table):
        renamed = table.rename({"price": "cost"})
        assert "cost" in renamed.columns and "price" not in renamed.columns
        with pytest.raises(SchemaError):
            table.rename({"missing": "x"})

    def test_with_column_from_values(self, table):
        widened = table.with_column("tax", [1.0, 2.0, 3.0, 4.0])
        assert widened.column("tax") == [1.0, 2.0, 3.0, 4.0]

    def test_with_column_from_callable(self, table):
        widened = table.with_column("double", lambda row: row["price"] * 2)
        assert widened.column("double") == [20.0, 80.0, 40.0, 60.0]

    def test_with_column_wrong_length(self, table):
        with pytest.raises(SchemaError):
            table.with_column("tax", [1.0])


class TestAggregates:
    def test_min_max_mean(self, table):
        assert table.min("price") == 10.0
        assert table.max("price") == 40.0
        assert table.mean("price") == 25.0

    def test_min_on_empty_column_raises(self):
        empty = ColumnTable.empty(["a"])
        with pytest.raises(ValueError):
            empty.min("a")

    def test_value_counts(self, table):
        assert table.value_counts("cut") == {"good": 2, "ideal": 2}


class TestRendering:
    def test_to_text_contains_headers_and_rows(self, table):
        text = table.to_text()
        assert "id" in text and "price" in text
        assert "a" in text

    def test_to_text_truncates(self, table):
        text = table.to_text(max_rows=2)
        assert "more rows" in text

    @pytest.mark.parametrize("max_rows", [0, 2, 4, 20])
    def test_text_grid_is_byte_identical_to_the_table_round_trip(self, table, max_rows):
        rows, columns = table.to_rows(), table.columns
        expected = reference_text_grid(columns, rows, max_rows=max_rows)
        assert table.to_text(max_rows=max_rows) == expected
        assert (
            format_grid(columns, rows[:max_rows], hidden_rows=len(rows) - max_rows)
            == expected
        )

    def test_text_grid_of_mixed_cells_and_of_no_rows(self):
        columns = ["id", "price", "beds", "wide header", "flag"]
        rows = [
            {"id": "a", "price": 1234.5678, "beds": 3, "wide header": "x", "flag": True},
            {"id": "long-identifier", "price": -0.004, "beds": 12, "wide header": "", "flag": None},
        ]
        assert format_grid(columns, rows) == reference_text_grid(columns, rows)
        assert format_grid(columns, []) == reference_text_grid(columns, [])
        assert format_grid(columns, rows, float_format="{:.0f}") == reference_text_grid(
            columns, rows, float_format="{:.0f}"
        )
