"""SQLite persistence for the shared query-result cache.

The dense-region cache (:mod:`repro.sqlstore.dense_cache`) already survives
restarts, mirroring the paper's shared MySQL cache; the query-result cache —
the layer that makes repeated external top-k queries free — did not, so every
service restart threw away the round trips previous deployments had paid for.
:class:`ResultCacheStore` is its sibling: it snapshots a
:class:`~repro.webdb.cache.QueryResultCache` into a single SQLite file and
warm-loads it when the service boots, so a restarted service replays the
previous process's workload with zero external queries.

Two versioning guards keep a spill from resurrecting answers recorded under a
different interface contract:

* **store schema version** — a spill written by an incompatible adapter
  (different table layout or payload format) is dropped wholesale at open;
* **``system_k``** — every entry records the ``system_k`` it was observed
  under, and :meth:`ResultCacheStore.load` skips entries whose ``system_k``
  differs from the caller's expectation for that namespace.  The
  overflow/valid/underflow trichotomy is only meaningful relative to ``k``,
  so an entry from a re-configured interface must never be replayed;
* **change stamps** — every entry records its namespace's live-cache change
  sequence (``QueryResultCache.changes``) at snapshot time, in the
  ``generation`` column.  :meth:`ResultCacheStore.save` re-reads the
  sequence after writing and drops any namespace whose sequence moved
  mid-save (an ``invalidate`` or a delta racing the snapshot would otherwise
  persist entries the live cache had already retired), and
  :meth:`ResultCacheStore.load` skips rows whose stamp disagrees with the
  namespace stamp recorded in the meta table.

:meth:`ResultCacheStore.prune` deletes an exact set of entries (by cache
key) from the spill — the delta-invalidation pathway uses it so a warm
restart after a catalog delta replays precisely the surviving entries.

Entries are stored as JSON payloads (query, rank-ordered rows, outcome) and
re-enter the cache through the normal ``store`` path, so warm-loaded covering
entries immediately participate in containment answering too.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sqlstore.connections import SQLiteConnections
from repro.webdb.cache import CacheKey, QueryResultCache
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import SearchQuery, freeze_row

#: Bumped whenever the table layout or the JSON payload shape changes; a
#: spill recorded under any other version is ignored and recreated.
#: v2: entries carry their namespace's change stamp.
SCHEMA_VERSION = 2


class ResultCacheStore:
    """Durable SQLite snapshot of a :class:`QueryResultCache`.

    Parameters
    ----------
    path:
        SQLite database file (``":memory:"`` keeps the spill process-local,
        used by the tests).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._path = path
        self._lock = threading.Lock()
        self._connections = SQLiteConnections(path)
        self._connection = self._connections.get
        self._create_tables()

    @property
    def _all_connections(self) -> List[sqlite3.Connection]:
        """Every connection opened and not yet closed."""
        return self._connections.opened

    def _create_tables(self) -> None:
        with self._lock:
            connection = self._connection()
            connection.execute(
                """
                CREATE TABLE IF NOT EXISTS result_cache_meta (
                    key TEXT PRIMARY KEY,
                    value TEXT NOT NULL
                )
                """
            )
            # The version check runs before the entries table is created:
            # a version bump may change the column set (v1 → v2 added the
            # change stamp), so an incompatible spill's table must be
            # dropped outright, not merely emptied.
            row = connection.execute(
                "SELECT value FROM result_cache_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO result_cache_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row[0]) != SCHEMA_VERSION:
                connection.execute("DROP TABLE IF EXISTS result_cache_entries")
                connection.execute(
                    "DELETE FROM result_cache_meta WHERE key LIKE 'generation:%'"
                )
                connection.execute(
                    "UPDATE result_cache_meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION),),
                )
            connection.execute(
                """
                CREATE TABLE IF NOT EXISTS result_cache_entries (
                    namespace TEXT NOT NULL,
                    system_k INTEGER NOT NULL,
                    query_key TEXT NOT NULL,
                    payload TEXT NOT NULL,
                    position INTEGER NOT NULL,
                    generation TEXT NOT NULL,
                    PRIMARY KEY (namespace, system_k, query_key)
                )
                """
            )
            connection.commit()

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    @staticmethod
    def _serialize(result: SearchResult) -> str:
        return json.dumps(
            {
                "query": result.query.to_dict(),
                "rows": [dict(row) for row in result.rows],
                "outcome": result.outcome.value,
                "system_k": result.system_k,
                "elapsed_seconds": result.elapsed_seconds,
            }
        )

    @staticmethod
    def _deserialize(payload: str) -> SearchResult:
        data = json.loads(payload)
        return SearchResult(
            query=SearchQuery.from_dict(data["query"]),
            rows=tuple(freeze_row(row) for row in data["rows"]),
            outcome=Outcome(data["outcome"]),
            system_k=int(data["system_k"]),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )

    # ------------------------------------------------------------------ #
    # Snapshot / warm load
    # ------------------------------------------------------------------ #
    def save(self, cache: QueryResultCache) -> int:
        """Replace the spill with a snapshot of ``cache``'s live entries.

        Returns the number of entries persisted.  The snapshot preserves LRU
        order so a future load re-stores entries oldest-first.  Every entry
        is stamped with its namespace's change sequence; after the write the
        live sequence is read again, and a namespace whose sequence moved
        mid-save is deleted from the spill — the racing ``invalidate`` or
        delta may have retired those entries from the live cache (and pruned
        them from the spill before this write), and persisting them would
        resurrect them at the next warm load."""
        entries, sequences = cache.export_snapshot()
        stamps = {namespace: str(sequence) for namespace, sequence in sequences.items()}
        rows = []
        for position, (namespace, system_k, result) in enumerate(entries):
            rows.append(
                (
                    namespace,
                    system_k,
                    repr(result.query.canonical_key()),
                    self._serialize(result),
                    position,
                    stamps[namespace],
                )
            )
        persisted = len(rows)
        with self._lock:
            connection = self._connection()
            connection.execute("DELETE FROM result_cache_entries")
            connection.execute(
                "DELETE FROM result_cache_meta WHERE key LIKE 'generation:%'"
            )
            connection.executemany(
                """
                INSERT OR REPLACE INTO result_cache_entries
                    (namespace, system_k, query_key, payload, position, generation)
                VALUES (?, ?, ?, ?, ?, ?)
                """,
                rows,
            )
            connection.executemany(
                "INSERT OR REPLACE INTO result_cache_meta (key, value) VALUES (?, ?)",
                [
                    (f"generation:{namespace}", stamp)
                    for namespace, stamp in stamps.items()
                ],
            )
            for namespace, stamp in stamps.items():
                if str(cache.changes(namespace).sequence) != stamp:
                    dropped = connection.execute(
                        "SELECT COUNT(*) FROM result_cache_entries WHERE namespace = ?",
                        (namespace,),
                    ).fetchone()[0]
                    connection.execute(
                        "DELETE FROM result_cache_entries WHERE namespace = ?",
                        (namespace,),
                    )
                    connection.execute(
                        "DELETE FROM result_cache_meta WHERE key = ?",
                        (f"generation:{namespace}",),
                    )
                    persisted -= int(dropped)
            connection.commit()
        return persisted

    def load(
        self,
        cache: QueryResultCache,
        expected_system_k: Optional[Mapping[str, int]] = None,
    ) -> int:
        """Warm ``cache`` from the spill; returns the number of entries loaded.

        ``expected_system_k`` maps namespace to the interface's *current*
        ``system_k``: entries recorded under a different ``k`` (or for a
        namespace absent from the mapping) are skipped — their trichotomy was
        observed against a different interface contract.  Without the mapping
        every entry loads (the cache key still isolates ``system_k``).
        """
        with self._lock:
            connection = self._connection()
            stamps = {
                key[len("generation:"):]: value
                for key, value in connection.execute(
                    "SELECT key, value FROM result_cache_meta "
                    "WHERE key LIKE 'generation:%'"
                ).fetchall()
            }
            cursor = connection.execute(
                "SELECT namespace, system_k, payload, generation "
                "FROM result_cache_entries ORDER BY position"
            )
            stored: List[Tuple[str, int, str, str]] = cursor.fetchall()
        loaded = 0
        for namespace, system_k, payload, generation in stored:
            system_k = int(system_k)
            if expected_system_k is not None and (
                expected_system_k.get(namespace) != system_k
            ):
                continue
            if stamps.get(namespace) != generation:
                # Stamped under a different sequence than the namespace's
                # recorded one: a partial or raced save left it behind.
                continue
            result = self._deserialize(payload)
            cache.store(namespace, result.query, system_k, result)
            loaded += 1
        return loaded

    def prune(self, keys: Iterable[CacheKey]) -> int:
        """Delete an exact set of entries (by cache key) from the spill.

        ``keys`` are the ``(namespace, system_k, canonical query key)``
        triples the live cache retired — typically the return value of
        :meth:`~repro.webdb.cache.QueryResultCache.invalidate_delta` — so a
        warm restart after a catalog delta replays only surviving entries.
        Returns the number of rows removed."""
        parameters = [
            (namespace, system_k, repr(canonical))
            for namespace, system_k, canonical in keys
        ]
        if not parameters:
            return 0
        with self._lock:
            connection = self._connection()
            removed = 0
            for namespace, system_k, query_key in parameters:
                cursor = connection.execute(
                    "DELETE FROM result_cache_entries "
                    "WHERE namespace = ? AND system_k = ? AND query_key = ?",
                    (namespace, system_k, query_key),
                )
                removed += cursor.rowcount
            connection.commit()
        return removed

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        """The SQLite file backing the spill."""
        return self._path

    def entry_count(self) -> int:
        """Number of entries currently spilled."""
        with self._lock:
            row = self._connection().execute(
                "SELECT COUNT(*) FROM result_cache_entries"
            ).fetchone()
        return int(row[0])

    def namespaces(self) -> Dict[str, int]:
        """Spilled entry counts per namespace (diagnostics)."""
        with self._lock:
            cursor = self._connection().execute(
                "SELECT namespace, COUNT(*) FROM result_cache_entries GROUP BY namespace"
            )
            return {namespace: int(count) for namespace, count in cursor.fetchall()}

    def clear(self) -> int:
        """Drop every spilled entry; returns the number removed."""
        with self._lock:
            connection = self._connection()
            removed = connection.execute(
                "SELECT COUNT(*) FROM result_cache_entries"
            ).fetchone()[0]
            connection.execute("DELETE FROM result_cache_entries")
            connection.commit()
        return int(removed)

    def close(self) -> None:
        """Close every underlying connection, whichever thread opened it."""
        self._connections.close()
