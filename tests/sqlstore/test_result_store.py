"""Round-trip and versioning tests for the result-cache SQLite spill."""

import os
import sqlite3

import pytest

from repro.sqlstore.result_store import SCHEMA_VERSION, ResultCacheStore
from repro.webdb.cache import FetchStatus, QueryResultCache
from repro.webdb.delta import CatalogDelta
from repro.webdb.query import SearchQuery


def _populate(cache, db, namespace="bluenile-test", queries=None):
    queries = queries or [
        SearchQuery.everything(),
        SearchQuery.build(ranges={"carat": (0.5, 2.0)}),
        SearchQuery.build(
            ranges={"price": (500.0, 9000.0)}, memberships={"cut": ["good", "ideal"]}
        ),
    ]
    for query in queries:
        cache.fetch(namespace, query, db.system_k, lambda q=query: db.search(q))
    return queries


class TestResultCacheStore:
    def test_round_trip_preserves_entries(self, bluenile_db, tmp_path):
        path = os.fspath(tmp_path / "results.sqlite")
        cache = QueryResultCache()
        queries = _populate(cache, bluenile_db)
        store = ResultCacheStore(path)
        assert store.save(cache) == len(queries)
        assert store.entry_count() == len(queries)
        store.close()

        # A "restarted process": fresh store handle, fresh cache.
        reopened = ResultCacheStore(path)
        warmed = QueryResultCache()
        assert reopened.load(warmed) == len(queries)
        for query in queries:
            original = cache.lookup("bluenile-test", query, bluenile_db.system_k)
            loaded = warmed.probe("bluenile-test", query, bluenile_db.system_k)
            assert loaded is not None
            result, status = loaded
            assert status is FetchStatus.HIT
            assert result.outcome is original.outcome
            assert [list(row.items()) for row in result.rows] == [
                list(row.items()) for row in original.rows
            ]
        reopened.close()

    def test_loaded_covering_entries_answer_subsets(self, bluenile_db, tmp_path):
        """Warm-loaded entries re-enter through the normal store path, so
        containment answering works immediately after a restart."""
        path = os.fspath(tmp_path / "results.sqlite")
        cache = QueryResultCache()
        wide = SearchQuery.build(ranges={"carat": (2.5, 3.5)})
        result = bluenile_db.search(wide)
        if not result.covers_query:
            pytest.skip("fixture yields overflow for the wide query")
        cache.store("bn", wide, bluenile_db.system_k, result)
        store = ResultCacheStore(path)
        store.save(cache)
        warmed = QueryResultCache()
        store.load(warmed)
        narrow = SearchQuery.build(ranges={"carat": (2.6, 3.4)})
        probe = warmed.probe("bn", narrow, bluenile_db.system_k)
        assert probe is not None
        assert probe[1] is FetchStatus.CONTAINED
        store.close()

    def test_stale_system_k_entries_are_skipped(self, bluenile_db, tmp_path):
        path = os.fspath(tmp_path / "results.sqlite")
        cache = QueryResultCache()
        _populate(cache, bluenile_db)
        store = ResultCacheStore(path)
        store.save(cache)
        warmed = QueryResultCache()
        # The interface was re-configured: its k no longer matches the spill.
        assert (
            store.load(warmed, expected_system_k={"bluenile-test": bluenile_db.system_k + 5})
            == 0
        )
        assert len(warmed) == 0
        # The matching expectation loads everything.
        assert (
            store.load(warmed, expected_system_k={"bluenile-test": bluenile_db.system_k})
            == 3
        )
        store.close()

    def test_unknown_namespace_skipped_with_expectation_mapping(
        self, bluenile_db, tmp_path
    ):
        path = os.fspath(tmp_path / "results.sqlite")
        cache = QueryResultCache()
        _populate(cache, bluenile_db, namespace="decommissioned-source")
        store = ResultCacheStore(path)
        store.save(cache)
        warmed = QueryResultCache()
        assert store.load(warmed, expected_system_k={"bluenile-test": 10}) == 0
        store.close()

    def test_schema_version_mismatch_drops_spill(self, bluenile_db, tmp_path):
        path = os.fspath(tmp_path / "results.sqlite")
        cache = QueryResultCache()
        _populate(cache, bluenile_db)
        store = ResultCacheStore(path)
        store.save(cache)
        store.close()
        # Simulate a spill written by an incompatible adapter version.
        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE result_cache_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        connection.commit()
        connection.close()
        reopened = ResultCacheStore(path)
        assert reopened.entry_count() == 0
        warmed = QueryResultCache()
        assert reopened.load(warmed) == 0
        reopened.close()

    def test_save_replaces_previous_spill(self, bluenile_db, tmp_path):
        path = os.fspath(tmp_path / "results.sqlite")
        cache = QueryResultCache()
        _populate(cache, bluenile_db)
        store = ResultCacheStore(path)
        assert store.save(cache) == 3
        smaller = QueryResultCache()
        query = SearchQuery.everything()
        smaller.fetch(
            "bn", query, bluenile_db.system_k, lambda: bluenile_db.search(query)
        )
        assert store.save(smaller) == 1
        assert store.entry_count() == 1
        assert store.namespaces() == {"bn": 1}
        assert store.clear() == 1
        assert store.entry_count() == 0
        store.close()

    def test_lru_order_survives_the_round_trip(self, bluenile_db, tmp_path):
        """Entries reload oldest-first so a bounded cache keeps the same
        eviction order it would have had without the restart."""
        path = os.fspath(tmp_path / "results.sqlite")
        cache = QueryResultCache()
        queries = _populate(cache, bluenile_db)
        cache.lookup("bluenile-test", queries[0], bluenile_db.system_k)  # touch
        store = ResultCacheStore(path)
        store.save(cache)
        warmed = QueryResultCache(max_entries=2)
        store.load(warmed)
        # The touched query was most recent; the untouched second query was
        # the LRU tail and is the one evicted by the capacity-2 reload.
        assert warmed.probe("bluenile-test", queries[1], bluenile_db.system_k) is None
        probed = warmed.probe("bluenile-test", queries[0], bluenile_db.system_k)
        assert probed is not None and probed[1] is FetchStatus.HIT
        store.close()

    def test_close_releases_other_threads_connections(self, bluenile_db, tmp_path):
        """Regression: close() must release connections opened by *other*
        threads, not just the closing thread's own handle."""
        import threading

        path = os.fspath(tmp_path / "results.sqlite")
        store = ResultCacheStore(path)
        worker = threading.Thread(target=store.entry_count)
        worker.start()
        worker.join(timeout=5.0)
        store.entry_count()  # the main thread opens its own connection too
        assert len(store._all_connections) == 2
        store.close()
        assert store._all_connections == []

    def test_memory_store_isolated_per_instance(self, bluenile_db):
        cache = QueryResultCache()
        _populate(cache, bluenile_db)
        store = ResultCacheStore(":memory:")
        assert store.save(cache) == 3
        assert ResultCacheStore(":memory:").entry_count() == 0
        store.close()


class TestGenerationStamps:
    """The spill must never replay entries recorded under an older generation
    than the live cache's (an ``invalidate`` racing ``save`` would otherwise
    resurrect flushed answers at the next warm load)."""

    def test_save_racing_invalidation_drops_the_flushed_namespace(
        self, bluenile_db
    ):
        class _RacingCache(QueryResultCache):
            """Invalidates right after the snapshot is captured — the window
            between export and write where the old spill format lost."""

            def export_snapshot(self):
                snapshot = super().export_snapshot()
                self.invalidate("bluenile-test")
                return snapshot

        cache = _RacingCache()
        _populate(cache, bluenile_db)
        store = ResultCacheStore(":memory:")
        assert store.save(cache) == 0
        assert store.entry_count() == 0
        warmed = QueryResultCache()
        assert store.load(warmed) == 0
        store.close()

    def test_save_racing_a_delta_never_persists_a_retired_entry(self, bluenile_db):
        """The catalog-delta path (``QR2Service.apply_delta``) retires the
        entries a delta can match and prunes them from the spill; when that
        lands between the snapshot and the write, the write must not bring
        them back."""
        store = ResultCacheStore(":memory:")
        repriced = dict(bluenile_db.search(SearchQuery.everything()).rows[0])
        delta = CatalogDelta.from_rows(
            "bluenile-test", bluenile_db.key_column, [repriced], upserts=1
        )

        class _RacingCache(QueryResultCache):
            def export_snapshot(self):
                snapshot = super().export_snapshot()
                store.prune(self.invalidate_delta("bluenile-test", delta))
                return snapshot

        cache = _RacingCache()
        _populate(cache, bluenile_db)
        store.save(cache)
        warmed = QueryResultCache()
        store.load(warmed)
        def keys(entries):
            return {(ns, k, result.query.canonical_key()) for ns, k, result in entries}

        live = keys(QueryResultCache.export_snapshot(cache)[0])
        spilled = keys(warmed.export_snapshot()[0])
        assert len(live) < 3 and spilled <= live
        store.close()

    def test_unraced_namespaces_survive_a_raced_save(self, bluenile_db):
        class _RacingCache(QueryResultCache):
            def export_snapshot(self):
                snapshot = super().export_snapshot()
                self.invalidate("raced")
                return snapshot

        cache = _RacingCache()
        _populate(cache, bluenile_db)  # bluenile-test, untouched by the race
        query = SearchQuery.everything()
        cache.fetch(
            "raced", query, bluenile_db.system_k, lambda: bluenile_db.search(query)
        )
        store = ResultCacheStore(":memory:")
        assert store.save(cache) == 3
        assert store.namespaces() == {"bluenile-test": 3}
        store.close()

    def test_rows_with_stale_generation_stamps_are_skipped(
        self, bluenile_db, tmp_path
    ):
        path = os.fspath(tmp_path / "results.sqlite")
        cache = QueryResultCache()
        _populate(cache, bluenile_db)
        store = ResultCacheStore(path)
        assert store.save(cache) == 3
        store.close()
        # One row left behind by a partial save under an older generation.
        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE result_cache_entries SET generation = '[9, 9]' "
            "WHERE rowid = (SELECT MIN(rowid) FROM result_cache_entries)"
        )
        connection.commit()
        connection.close()
        reopened = ResultCacheStore(path)
        warmed = QueryResultCache()
        assert reopened.load(warmed) == 2
        reopened.close()

    def test_v1_spill_layout_is_dropped_wholesale(self, tmp_path):
        """A v1 spill has no ``generation`` column: the version bump must
        DROP the table (a DELETE would leave the old column set behind)."""
        path = os.fspath(tmp_path / "results.sqlite")
        connection = sqlite3.connect(path)
        connection.execute(
            "CREATE TABLE result_cache_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        connection.execute(
            "INSERT INTO result_cache_meta VALUES ('schema_version', '1')"
        )
        connection.execute(
            """
            CREATE TABLE result_cache_entries (
                namespace TEXT NOT NULL,
                system_k INTEGER NOT NULL,
                query_key TEXT NOT NULL,
                payload TEXT NOT NULL,
                position INTEGER NOT NULL,
                PRIMARY KEY (namespace, system_k, query_key)
            )
            """
        )
        connection.execute(
            "INSERT INTO result_cache_entries VALUES ('ns', 10, 'q', '{}', 0)"
        )
        connection.commit()
        connection.close()
        store = ResultCacheStore(path)
        assert store.entry_count() == 0
        warmed = QueryResultCache()
        assert store.load(warmed) == 0
        # The recreated table carries the v2 column set.
        columns = {
            row[1]
            for row in store._connection().execute(
                "PRAGMA table_info(result_cache_entries)"
            )
        }
        assert "generation" in columns
        store.close()

    def test_prune_removes_exactly_the_given_keys(self, bluenile_db):
        cache = QueryResultCache()
        queries = _populate(cache, bluenile_db)
        store = ResultCacheStore(":memory:")
        assert store.save(cache) == 3
        retired = [
            cache.key_for("bluenile-test", queries[0], bluenile_db.system_k)
        ]
        assert store.prune(retired) == 1
        assert store.prune(retired) == 0  # idempotent
        assert store.prune([]) == 0
        warmed = QueryResultCache()
        assert store.load(warmed) == 2
        assert warmed.probe("bluenile-test", queries[0], bluenile_db.system_k) is None
        assert (
            warmed.probe("bluenile-test", queries[1], bluenile_db.system_k)
            is not None
        )
        store.close()
