"""SQLite-backed tuple store.

The paper persists the shared dense-region cache in MySQL because it can grow
beyond main memory and is shared between users.  MySQL is not available here,
so :class:`SQLiteTupleStore` provides the same capability on the standard
library's ``sqlite3``: create a table per web-database schema, upsert crawled
tuples, and run indexed range scans over numeric attributes.

Connections are per-thread (:class:`~repro.sqlstore.connections.SQLiteConnections`),
writes are guarded by a lock, and the store works both on-disk (shared,
persistent — the production configuration) and in ``:memory:`` (tests).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.dataset.schema import Schema
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
    def _column_definitions(self) -> List[str]:
        definitions = [f"{_quote_identifier(self._schema.key)} TEXT PRIMARY KEY"]
        for attribute in self._schema.attributes:
            sql_type = _SQL_TYPE[attribute.is_numeric]
            definitions.append(f"{_quote_identifier(attribute.name)} {sql_type}")
        return definitions

    def _create_table(self) -> None:
        columns = ", ".join(self._column_definitions())
        statement = f"CREATE TABLE IF NOT EXISTS {_quote_identifier(self._table)} ({columns})"
        with self._write_lock:
            connection = self._connection()
            connection.execute(statement)
            for attribute in self._schema.attributes:
                if attribute.is_numeric:
                    index_name = f"idx_{self._table}_{attribute.name}"
                    connection.execute(
                        f"CREATE INDEX IF NOT EXISTS {_quote_identifier(index_name)} "
                        f"ON {_quote_identifier(self._table)} "
                        f"({_quote_identifier(attribute.name)})"
                    )
            connection.commit()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def upsert(self, rows: Iterable[Row]) -> int:
        """Insert or replace ``rows``; returns the number of rows written."""
        columns = self._schema.columns()
        placeholders = ", ".join("?" for _ in columns)
        column_sql = ", ".join(_quote_identifier(name) for name in columns)
        statement = (
            f"INSERT OR REPLACE INTO {_quote_identifier(self._table)} "
            f"({column_sql}) VALUES ({placeholders})"
        )
        payload = []
        for row in rows:
            self._schema.validate_row(dict(row))
            payload.append(tuple(row[name] for name in columns))
        if not payload:
            return 0
        with self._write_lock:
            connection = self._connection()
            connection.executemany(statement, payload)
            connection.commit()
        return len(payload)

    def delete_all(self) -> None:
        """Remove every stored tuple."""
        with self._write_lock:
            connection = self._connection()
            connection.execute(f"DELETE FROM {_quote_identifier(self._table)}")
            connection.commit()

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def count(self) -> int:
        """Number of stored tuples."""
        cursor = self._connection().execute(
            f"SELECT COUNT(*) FROM {_quote_identifier(self._table)}"
        )
        return int(cursor.fetchone()[0])

    def get(self, key: object) -> Optional[Row]:
        """Fetch one tuple by key, or ``None``."""
        columns = self._schema.columns()
        column_sql = ", ".join(_quote_identifier(name) for name in columns)
        cursor = self._connection().execute(
            f"SELECT {column_sql} FROM {_quote_identifier(self._table)} "
            f"WHERE {_quote_identifier(self._schema.key)} = ?",
            (key,),
        )
        record = cursor.fetchone()
        if record is None:
            return None
        return self._record_to_row(columns, record)

    def get_many(self, keys: Sequence[object]) -> Dict[object, Row]:
        """Fetch many tuples by key in chunked ``IN`` queries.

        Returns a ``{key: row}`` mapping; missing keys are simply absent.
        Used by the dense-region cache at boot, where fetching a region's
        tuples one ``SELECT`` at a time dominates warm-start latency.
        """
        columns = self._schema.columns()
        column_sql = ", ".join(_quote_identifier(name) for name in columns)
        key_column = _quote_identifier(self._schema.key)
        key_index = columns.index(self._schema.key)
        found: Dict[object, Row] = {}
        chunk_size = 500  # stay well under SQLite's bound-parameter limit
        for start in range(0, len(keys), chunk_size):
            chunk = list(keys[start : start + chunk_size])
            placeholders = ", ".join("?" for _ in chunk)
            cursor = self._connection().execute(
                f"SELECT {column_sql} FROM {_quote_identifier(self._table)} "
                f"WHERE {key_column} IN ({placeholders})",
                chunk,
            )
            for record in cursor.fetchall():
                found[record[key_index]] = self._record_to_row(columns, record)
        return found

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
        columns = self._schema.columns()
        column_sql = ", ".join(_quote_identifier(name) for name in columns)
        cursor = self._connection().execute(
            f"SELECT {column_sql} FROM {_quote_identifier(self._table)} "
            f"WHERE {_quote_identifier(attribute)} {lower_op} ? "
            f"AND {_quote_identifier(attribute)} {upper_op} ? "
            f"ORDER BY {_quote_identifier(attribute)} ASC",
            (lower, upper),
        )
        return [self._record_to_row(columns, record) for record in cursor.fetchall()]

    def all_rows(self) -> List[Row]:
        """Every stored tuple."""
        columns = self._schema.columns()
        column_sql = ", ".join(_quote_identifier(name) for name in columns)
        cursor = self._connection().execute(
            f"SELECT {column_sql} FROM {_quote_identifier(self._table)}"
        )
        return [self._record_to_row(columns, record) for record in cursor.fetchall()]

    def iter_rows(self, batch_size: int = 10_000) -> Iterator[List[Row]]:
        """Stream every stored tuple in batches of at most ``batch_size``.

        At no point does the full table live in Python memory as row
        dictionaries, so million-tuple catalogs can be transposed into
        columns as they stream (iterating the store flattens these batches
        for :func:`repro.webdb.database.stream_sorted_columns`).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        columns = self._schema.columns()
        column_sql = ", ".join(_quote_identifier(name) for name in columns)
        cursor = self._connection().execute(
            f"SELECT {column_sql} FROM {_quote_identifier(self._table)}"
        )
        cursor.arraysize = batch_size
        while True:
            records = cursor.fetchmany(batch_size)
            if not records:
                break
            yield [self._record_to_row(columns, record) for record in records]

    def __iter__(self) -> Iterator[Row]:
        """Every stored tuple, streamed through the batched cursor."""
        for batch in self.iter_rows():
            yield from batch

    def _record_to_row(self, columns: Sequence[str], record: Tuple) -> Row:
        row: Dict[str, object] = {}
        for name, value in zip(columns, record):
            if name != self._schema.key and name in self._schema.numeric_names:
                row[name] = float(value)
            else:
                row[name] = value
        return row

    def close(self) -> None:
        """Close every underlying connection, whichever thread opened it."""
        self._connections.close()
