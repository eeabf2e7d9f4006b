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

    def test_constructor_copies_its_input_columns(self):
        prices = [1.0, 2.0]
        table = ColumnTable({"price": prices})
        prices.append(3.0)
        prices[0] = 99.0
        assert table.column("price") == [1.0, 2.0]
        assert len(table) == 2

    def test_rows_are_copies(self, table):
        table.row(0)["price"] = -1.0
        table.to_rows()[1]["price"] = -1.0
        assert table.column("price") == [10.0, 40.0, 20.0, 30.0]

    def test_equality_needs_the_same_columns_and_rows(self, table):
        assert table != table.to_rows()
        assert table != ColumnTable.from_rows(table.to_rows(), columns=["price", "id", "cut"])
        assert table != ColumnTable.from_rows(table.to_rows()[:3])

    def test_repr_names_columns_and_row_count(self, table):
        assert repr(table) == "ColumnTable(columns=['id', 'price', 'cut'], rows=4)"


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
