"""SQLite-backed tuple store.

The paper keeps QR2's shared state in MySQL because it can grow beyond main
memory and is shared between users.  MySQL is not available here, so
:class:`SQLiteTupleStore` keeps tuples on the standard library's ``sqlite3``
(a simulated site's catalog loads from it at scale): create a table per
web-database schema, upsert tuples, stream them back in batches, and scan
numeric ranges.  The table is keyed by the tuple key alone: readers scan
the whole table, so no per-attribute index is maintained on write.

Connections are per-thread (:class:`~repro.sqlstore.connections.SQLiteConnections`),
writes are guarded by a lock, and the store works both on-disk (shared,
persistent — the production configuration) and in ``:memory:`` (tests).
"""

from __future__ import annotations

import sqlite3
import threading
from functools import partial
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.dataset.schema import Schema
from repro.dataset.table import transpose
from repro.exceptions import SchemaError
from repro.sqlstore.connections import SQLiteConnections
from repro.webdb.query import Row

_SQL_TYPE = {True: "REAL", False: "TEXT"}


def _quote_identifier(name: str) -> str:
    """Quote an identifier for SQLite, refusing suspicious names outright."""
    if not name.replace("_", "").isalnum():
        raise SchemaError(f"illegal identifier {name!r}")
    return f'"{name}"'


class SQLiteTupleStore:
    """A persistent store of tuples conforming to one web-database schema."""

    def __init__(self, schema: Schema, path: str = ":memory:", table: str = "tuples") -> None:
        self._schema = schema
        self._table = table
        self._write_lock = threading.Lock()
        self._connections = SQLiteConnections(path)
        self._connection = self._connections.get
        self._create_table()

    # ------------------------------------------------------------------ #
    # Schema plumbing
    # ------------------------------------------------------------------ #
    def _create_table(self) -> None:
        table = _quote_identifier(self._table)
        definitions = [f"{_quote_identifier(self._schema.key)} TEXT PRIMARY KEY"] + [
            f"{_quote_identifier(attribute.name)} {_SQL_TYPE[attribute.is_numeric]}"
            for attribute in self._schema.attributes
        ]
        with self._write_lock:
            connection = self._connection()
            connection.execute(f"CREATE TABLE IF NOT EXISTS {table} ({', '.join(definitions)})")
            connection.commit()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def upsert(self, rows: Iterable[Row]) -> int:
        """Insert or replace ``rows``; returns the number of rows written.
        The rows are validated column by column before anything is written."""
        columns = self._schema.columns()
        data = transpose(rows, columns)
        if not data[self._schema.key]:
            return 0
        self._schema.validate_columns(data)
        payload = list(zip(*data.values()))
        column_sql = ", ".join(map(_quote_identifier, columns))
        with self._write_lock:
            connection = self._connection()
            connection.executemany(
                f"INSERT OR REPLACE INTO {_quote_identifier(self._table)} ({column_sql}) "
                f"VALUES ({', '.join('?' * len(columns))})",
                payload,
            )
            connection.commit()
        return len(payload)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def _select(self, where: str = "", parameters: Sequence[object] = ()) -> sqlite3.Cursor:
        """Every column (``schema.columns()`` order) of the tuples ``where`` admits."""
        column_sql = ", ".join(map(_quote_identifier, self._schema.columns()))
        return self._connection().execute(
            f"SELECT {column_sql} FROM {_quote_identifier(self._table)} {where}", parameters
        )

    def _columns(self, records: Sequence[Tuple]) -> Dict[str, Sequence[object]]:
        """``records`` of :meth:`_select` transposed, numeric columns as ``float``."""
        numeric = set(self._schema.numeric_names)
        return {
            name: list(map(float, values)) if name in numeric else values
            for name, values in zip(self._schema.columns(), zip(*records))
        }

    def _rows(self, records: Sequence[Tuple]) -> List[Row]:
        """``records`` of :meth:`_select` as row dictionaries."""
        columns = self._columns(records)
        return [dict(zip(columns, values)) for values in zip(*columns.values())]

    def range_scan(
        self,
        attribute: str,
        lower: float,
        upper: float,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> List[Row]:
        """Return stored tuples whose ``attribute`` lies in the given range."""
        self._schema.require_numeric(attribute)
        lower_op = ">=" if include_lower else ">"
        upper_op = "<=" if include_upper else "<"
        column = _quote_identifier(attribute)
        cursor = self._select(
            f"WHERE {column} {lower_op} ? AND {column} {upper_op} ? ORDER BY {column} ASC",
            (lower, upper),
        )
        return self._rows(cursor.fetchall())

    def all_rows(self) -> List[Row]:
        """Every stored tuple."""
        return self._rows(self._select().fetchall())

    def _batches(self, batch_size: int) -> Iterator[List[Tuple]]:
        """Every stored record, in ``fetchmany`` batches of at most
        ``batch_size``."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        cursor = self._select()
        cursor.arraysize = batch_size
        return iter(partial(cursor.fetchmany, batch_size), [])

    def iter_rows(self, batch_size: int = 10_000) -> Iterator[List[Row]]:
        """Stream every stored tuple as row dictionaries, in batches of at
        most ``batch_size``; the full table never lives in Python memory."""
        for records in self._batches(batch_size):
            yield self._rows(records)

    def iter_columns(self, batch_size: int = 10_000) -> Iterator[Dict[str, Sequence[object]]]:
        """Stream every stored tuple as columns, one ``fetchmany`` batch of
        at most ``batch_size`` records at a time, with no row dictionary
        built: :func:`repro.webdb.database.stream_sorted_columns` loads a
        store this way."""
        for records in self._batches(batch_size):
            yield self._columns(records)

    def close(self) -> None:
        """Close every underlying connection, whichever thread opened it."""
        self._connections.close()
