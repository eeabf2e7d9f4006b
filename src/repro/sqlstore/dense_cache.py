"""Persistent dense-region cache.

``(1D/MD)-RERANK`` crawl dense regions on the fly and keep them around to
answer future queries locally.  The cache is shared across all sessions of the
service, so the paper persists it in MySQL and verifies it against the live
web database when the service boots.  :class:`DenseRegionCache` reproduces
that component on SQLite: it stores

* the *region descriptors* (which attribute or attribute set, which bounds),
  in a metadata table, and
* the *crawled tuples* themselves, in a :class:`~repro.sqlstore.store.SQLiteTupleStore`.

The in-memory registry of crawled boxes lives in
:mod:`repro.core.dense_index`, and the rows a request reads are the result
cache's entries; this module is only about durability and boot-time
verification.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.dataset.schema import Schema
from repro.exceptions import DenseRegionError
from repro.sqlstore.connections import SQLiteConnections
from repro.sqlstore.store import SQLiteTupleStore
from repro.webdb.query import Row


@dataclass(frozen=True)
class StoredRegion:
    """A persisted dense region.

    ``bounds`` maps each attribute of the region to its ``(lower, upper)``
    closed interval; 1D regions have a single entry, MD regions one per
    ranking attribute.  ``tuple_keys`` are the keys of the crawled tuples that
    belong to the region.
    """

    region_id: int
    bounds: Mapping[str, Tuple[float, float]]
    tuple_keys: Tuple[object, ...]

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes the region constrains, sorted for stable identity."""
        return tuple(sorted(self.bounds.keys()))


class DenseRegionCache:
    """Durable storage for dense regions and their crawled tuples."""

    def __init__(self, schema: Schema, path: str = ":memory:") -> None:
        self._schema = schema
        self._tuples = SQLiteTupleStore(schema, path=path, table="dense_tuples")
        self._lock = threading.Lock()
        self._connections = SQLiteConnections(path)
        self._connection = self._connections.get
        self._create_tables()

    def _create_tables(self) -> None:
        with self._lock:
            connection = self._connection()
            connection.execute(
                """
                CREATE TABLE IF NOT EXISTS dense_regions (
                    region_id INTEGER PRIMARY KEY AUTOINCREMENT,
                    bounds_json TEXT NOT NULL,
                    keys_json TEXT NOT NULL
                )
                """
            )
            connection.commit()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def store_region(
        self,
        bounds: Mapping[str, Tuple[float, float]],
        rows: Sequence[Row],
    ) -> StoredRegion:
        """Persist one crawled region and its tuples."""
        if not bounds:
            raise DenseRegionError("a dense region needs at least one bounded attribute")
        for attribute, (lower, upper) in bounds.items():
            self._schema.require_numeric(attribute)
            if lower > upper:
                raise DenseRegionError(
                    f"inverted bounds for {attribute!r}: ({lower}, {upper})"
                )
        self._tuples.upsert(rows)
        keys = [row[self._schema.key] for row in rows]
        bounds_json = json.dumps(
            {name: [float(low), float(high)] for name, (low, high) in bounds.items()},
            sort_keys=True,
        )
        keys_json = json.dumps(keys)
        with self._lock:
            connection = self._connection()
            cursor = connection.execute(
                "INSERT INTO dense_regions (bounds_json, keys_json) VALUES (?, ?)",
                (bounds_json, keys_json),
            )
            connection.commit()
            region_id = int(cursor.lastrowid)
        return StoredRegion(
            region_id=region_id,
            bounds={name: (float(low), float(high)) for name, (low, high) in bounds.items()},
            tuple_keys=tuple(keys),
        )

    def drop_region(self, region_id: int) -> None:
        """Remove one region descriptor (tuples remain; they are harmless)."""
        with self._lock:
            connection = self._connection()
            connection.execute("DELETE FROM dense_regions WHERE region_id = ?", (region_id,))
            connection.commit()

    def clear(self) -> None:
        """Remove every region and every cached tuple."""
        with self._lock:
            connection = self._connection()
            connection.execute("DELETE FROM dense_regions")
            connection.commit()
        self._tuples.delete_all()

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def regions(self) -> List[StoredRegion]:
        """All persisted regions."""
        cursor = self._connection().execute(
            "SELECT region_id, bounds_json, keys_json FROM dense_regions"
        )
        stored = []
        for region_id, bounds_json, keys_json in cursor.fetchall():
            bounds = {
                name: (float(pair[0]), float(pair[1]))
                for name, pair in json.loads(bounds_json).items()
            }
            keys = tuple(json.loads(keys_json))
            stored.append(StoredRegion(int(region_id), bounds, keys))
        return stored

    def rows_for_region(self, region: StoredRegion) -> List[Row]:
        """The crawled tuples belonging to ``region``, in stored-key order,
        fetched as chunked batch lookups."""
        found = self._tuples.get_many(region.tuple_keys)
        rows = []
        for key in region.tuple_keys:
            # Keys round-trip through JSON while the store's key column is
            # TEXT, so a non-string key may come back as its string form.
            row = found.get(key) or found.get(str(key))
            if row is None:
                raise DenseRegionError(
                    f"region {region.region_id} references missing tuple {key!r}"
                )
            rows.append(row)
        return rows

    def tuple_count(self) -> int:
        """Number of cached tuples across all regions."""
        return self._tuples.count()

    # ------------------------------------------------------------------ #
    # Boot-time verification (paper: "before the system boots up we verify
    # the cache and update the changes from the web database")
    # ------------------------------------------------------------------ #
    def verify_and_refresh(self, crawl_region) -> Dict[str, int]:
        """Re-crawl every stored region with ``crawl_region(bounds) -> rows``
        and replace regions whose contents changed: a tuple that entered or
        left the region, or a stored tuple whose values differ from the live
        one (a repriced row keeps its key).  A region the callback cannot
        crawl whole (it returns ``None``) is dropped, counted as refreshed.

        Returns counters ``{"checked": .., "refreshed": .., "unchanged": ..}``.
        The crawl callback is injected so this module stays independent of the
        crawler and of the live database.
        """
        counters = {"checked": 0, "refreshed": 0, "unchanged": 0}
        for region in self.regions():
            counters["checked"] += 1
            fresh_rows = crawl_region(region.bounds)
            if fresh_rows is not None and self._by_key(fresh_rows) == self._by_key(
                self._tuples.get_many(region.tuple_keys).values()
            ):
                counters["unchanged"] += 1
                continue
            self.drop_region(region.region_id)
            if fresh_rows is not None:
                self.store_region(region.bounds, fresh_rows)
            counters["refreshed"] += 1
        return counters

    def _by_key(self, rows: Iterable[Row]) -> Dict[str, Tuple[object, ...]]:
        """``rows`` by stringified key, each as its attribute values: the
        form in which a crawled row and its stored copy compare equal (the
        store keeps keys as text and numbers as floats)."""
        key = self._schema.key
        names = self._schema.names
        return {str(row[key]): tuple(row[name] for name in names) for row in rows}

    def close(self) -> None:
        """Close every underlying connection, whichever thread opened it."""
        self._tuples.close()
        self._connections.close()
