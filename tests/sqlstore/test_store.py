"""Tests for the SQLite tuple store (the MySQL substitute)."""

import threading

import pytest

from repro.dataset.schema import Attribute, Schema
from repro.exceptions import SchemaError
from repro.sqlstore.store import SQLiteTupleStore


@pytest.fixture()
def schema() -> Schema:
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", 0, 1000),
            Attribute.numeric("carat", 0, 5),
            Attribute.categorical("cut", ["good", "ideal"]),
        ),
    )


@pytest.fixture()
def store(schema) -> SQLiteTupleStore:
    return SQLiteTupleStore(schema)


def _rows(count=5):
    return [
        {"id": f"t{i}", "price": float(i * 10), "carat": float(i) / 2.0, "cut": "good" if i % 2 else "ideal"}
        for i in range(count)
    ]


class TestUpsertAndGet:
    def test_upsert_and_count(self, store):
        assert store.upsert(_rows(5)) == 5
        assert len(store.all_rows()) == 5

    def test_upsert_empty_is_noop(self, store):
        assert store.upsert([]) == 0

    def test_upsert_replaces_existing(self, store):
        store.upsert(_rows(3))
        store.upsert([{"id": "t1", "price": 999.0, "carat": 1.0, "cut": "good"}])
        assert len(store.all_rows()) == 3
        assert {row["id"]: row["price"] for row in store.all_rows()}["t1"] == 999.0

    def test_upsert_validates_rows(self, store):
        with pytest.raises(SchemaError):
            store.upsert([{"id": "bad", "price": 99999.0, "carat": 1.0, "cut": "good"}])


class TestRangeScan:
    def test_range_scan_inclusive(self, store):
        store.upsert(_rows(10))
        rows = store.range_scan("price", 20, 50)
        assert [row["id"] for row in rows] == ["t2", "t3", "t4", "t5"]

    def test_range_scan_exclusive_bounds(self, store):
        store.upsert(_rows(10))
        rows = store.range_scan("price", 20, 50, include_lower=False, include_upper=False)
        assert [row["id"] for row in rows] == ["t3", "t4"]

    def test_range_scan_orders_by_attribute(self, store):
        store.upsert(reversed(_rows(6)))
        rows = store.range_scan("price", 0, 1000)
        prices = [row["price"] for row in rows]
        assert prices == sorted(prices)

    def test_range_scan_on_categorical_rejected(self, store):
        with pytest.raises(SchemaError):
            store.range_scan("cut", 0, 1)

    def test_all_rows(self, store):
        store.upsert(_rows(3))
        assert len(store.all_rows()) == 3


class TestIdentifiersAndPersistence:
    def test_illegal_identifier_rejected(self):
        hostile = Schema(
            key="id",
            attributes=(Attribute.numeric("price; drop table", 0, 1),),
        )
        with pytest.raises(SchemaError):
            SQLiteTupleStore(hostile)

    def test_on_disk_persistence(self, schema, tmp_path):
        path = str(tmp_path / "tuples.sqlite")
        first = SQLiteTupleStore(schema, path=path)
        first.upsert(_rows(4))
        first.close()
        second = SQLiteTupleStore(schema, path=path)
        assert len(second.all_rows()) == 4
        assert "t2" in {row["id"] for row in second.all_rows()}
        second.close()

    def test_concurrent_writes(self, store):
        def work(offset):
            store.upsert(
                [
                    {"id": f"w{offset}-{i}", "price": 1.0, "carat": 1.0, "cut": "good"}
                    for i in range(50)
                ]
            )

        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store.all_rows()) == 300


def _many_rows(count):
    """Like ``_rows`` but keeps every value inside the schema domains for
    counts beyond ten (carat is capped at 5)."""
    return [
        {
            "id": f"t{i}",
            "price": float(i % 100) * 10.0,
            "carat": float(i % 10) / 2.0,
            "cut": "good" if i % 2 else "ideal",
        }
        for i in range(count)
    ]


class TestIterRows:
    def test_batches_cover_all_rows_in_order(self, store):
        store.upsert(_many_rows(25))
        batches = list(store.iter_rows(batch_size=7))
        assert [len(batch) for batch in batches] == [7, 7, 7, 4]
        streamed = [row for batch in batches for row in batch]
        assert streamed == store.all_rows()

    def test_batch_size_does_not_change_content(self, store):
        store.upsert(_many_rows(13))
        one_shot = [row for batch in store.iter_rows(batch_size=100) for row in batch]
        row_by_row = [row for batch in store.iter_rows(batch_size=1) for row in batch]
        assert one_shot == row_by_row == store.all_rows()

    def test_numeric_types_converted_like_all_rows(self, store):
        store.upsert(_rows(3))
        for batch in store.iter_rows():
            for row in batch:
                assert type(row["price"]) is float
                assert type(row["carat"]) is float
                assert type(row["cut"]) is str

    def test_empty_store_yields_nothing(self, store):
        assert list(store.iter_rows()) == []

    def test_invalid_batch_size_rejected(self, store):
        with pytest.raises(ValueError):
            next(store.iter_rows(batch_size=0))


class TestIterColumns:
    def test_batches_are_the_row_batches_transposed(self, store):
        """Each column batch holds exactly the values (and value types) of
        the row batch at the same cursor position, integers stored in a
        numeric column read back as ``float``."""
        store.upsert(_many_rows(25) + [{"id": "int", "price": 7, "carat": 1, "cut": "good"}])
        row_batches = list(store.iter_rows(batch_size=7))
        column_batches = list(store.iter_columns(batch_size=7))
        assert [len(batch["id"]) for batch in column_batches] == [7, 7, 7, 5]
        for rows, columns in zip(row_batches, column_batches):
            assert list(columns) == store._schema.columns()
            for name, values in columns.items():
                assert [(type(v), v) for v in values] == [(type(r[name]), r[name]) for r in rows]

    def test_empty_store_and_invalid_batch_size(self, store):
        assert list(store.iter_columns()) == []
        with pytest.raises(ValueError):
            next(store.iter_columns(batch_size=0))

