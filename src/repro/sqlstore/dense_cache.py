"""Persistent dense-region cache.

``(1D/MD)-RERANK`` crawl dense regions on the fly and keep them around to
answer future queries locally.  The cache is shared across all sessions of the
service, so the paper persists it in MySQL and verifies it against the live
web database when the service boots.  :class:`DenseRegionCache` reproduces
that component on SQLite: it stores the *region descriptors* — which
attribute or attribute set, which bounds — and no row.

In memory, a crawled box and its rows are one region entry of the
query-result cache (see :mod:`repro.core.dense_index`); boot-time
verification re-crawls each stored box into the result cache as a region
entry again, so a restart reads live rows.  This module is only about
durability.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.dataset.schema import Schema
from repro.exceptions import DenseRegionError
from repro.sqlstore.connections import SQLiteConnections

#: A persisted region's closed interval per attribute.
Bounds = Mapping[str, Tuple[float, float]]


@dataclass(frozen=True)
class StoredRegion:
    """A persisted dense region.

    ``bounds`` maps each attribute of the region to its ``(lower, upper)``
    closed interval; 1D regions have a single entry, MD regions one per
    ranking attribute.
    """

    region_id: int
    bounds: Bounds


class DenseRegionCache:
    """Durable storage for the boxes of the dense regions crawled whole."""

    def __init__(self, schema: Schema, path: str = ":memory:") -> None:
        self._schema = schema
        self._lock = threading.Lock()
        self._connections = SQLiteConnections(path)
        self._connection = self._connections.get
        self._write(
            "CREATE TABLE IF NOT EXISTS dense_boxes"
            " (region_id INTEGER PRIMARY KEY AUTOINCREMENT, bounds_json TEXT NOT NULL)"
        )

    def _write(self, sql: str, parameters: Tuple = ()) -> int:
        """Run one write statement and commit; returns the last row id."""
        with self._lock:
            connection = self._connection()
            cursor = connection.execute(sql, parameters)
            connection.commit()
            return int(cursor.lastrowid or 0)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def store_region(self, bounds: Bounds) -> StoredRegion:
        """Persist one crawled region's box."""
        if not bounds:
            raise DenseRegionError("a dense region needs at least one bounded attribute")
        for attribute, (lower, upper) in bounds.items():
            self._schema.require_numeric(attribute)
            if lower > upper:
                raise DenseRegionError(f"inverted bounds for {attribute!r}: ({lower}, {upper})")
        floats = {name: (float(low), float(high)) for name, (low, high) in bounds.items()}
        region_id = self._write(
            "INSERT INTO dense_boxes (bounds_json) VALUES (?)",
            (json.dumps(floats, sort_keys=True),),
        )
        return StoredRegion(region_id, floats)

    def drop_region(self, region_id: int) -> None:
        """Remove one region."""
        self._write("DELETE FROM dense_boxes WHERE region_id = ?", (region_id,))

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def regions(self) -> List[StoredRegion]:
        """All persisted regions."""
        cursor = self._connection().execute("SELECT region_id, bounds_json FROM dense_boxes")
        return [
            StoredRegion(
                int(region_id),
                {name: (float(low), float(high)) for name, (low, high) in json.loads(text).items()},
            )
            for region_id, text in cursor.fetchall()
        ]

    # ------------------------------------------------------------------ #
    # Boot-time verification (paper: "before the system boots up we verify
    # the cache and update the changes from the web database")
    # ------------------------------------------------------------------ #
    def verify(self, crawl_region: Callable[[Bounds], bool]) -> Dict[str, int]:
        """Re-crawl every stored region with ``crawl_region(bounds)``, which
        says whether it crawled the box whole, and drop each region it could
        not.  The crawl is injected so this module stays independent of the
        crawler and of the live database; what it read is its own business.

        Returns ``{"checked": .., "refreshed": .., "unchanged": ..}``: the
        regions crawled, those dropped from the store, and those kept as
        stored.  No row is stored, so a kept region is not compared with
        what it held before.
        """
        counters = {"checked": 0, "refreshed": 0, "unchanged": 0}
        for region in self.regions():
            counters["checked"] += 1
            if crawl_region(region.bounds):
                counters["unchanged"] += 1
            else:
                self.drop_region(region.region_id)
                counters["refreshed"] += 1
        return counters

    def close(self) -> None:
        """Close every underlying connection, whichever thread opened it."""
        self._connections.close()
