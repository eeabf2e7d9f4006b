"""Closing a file-backed store closes every SQLite connection it opened,
whichever thread opened it."""

import os
import sqlite3
import threading

import pytest

from repro.dataset.schema import Attribute, Schema
from repro.sqlstore import DenseRegionCache, SQLiteTupleStore
from repro.sqlstore.connections import SQLiteConnections

SCHEMA = Schema(key="id", attributes=(Attribute.numeric("price", 0, 100),))

STORES = {
    "tuple_store": lambda path: SQLiteTupleStore(SCHEMA, path=path),
    "dense_cache": lambda path: DenseRegionCache(SCHEMA, path=path),
}

#: A read each store answers from its own tables.
PROBES = {
    "tuple_store": lambda store: len(store.all_rows()),
    "dense_cache": lambda store: len(store.regions()),
}


def _on_another_thread(function):
    results = []
    worker = threading.Thread(target=lambda: results.append(function()))
    worker.start()
    worker.join(timeout=5.0)
    assert results, "worker thread did not finish"
    return results[0]


def _assert_closed(connection):
    with pytest.raises(sqlite3.ProgrammingError):
        connection.execute("SELECT 1")


@pytest.fixture(params=["memory", "file"])
def path(request, tmp_path):
    if request.param == "memory":
        return ":memory:"
    return os.fspath(tmp_path / "connections.sqlite")


class TestSQLiteConnections:
    def test_get_is_stable_on_one_thread(self, path):
        connections = SQLiteConnections(path)
        assert connections.get() is connections.get()
        connections.close()

    def test_file_backed_threads_get_their_own_connections(self, tmp_path):
        connections = SQLiteConnections(os.fspath(tmp_path / "db.sqlite"))
        mine = connections.get()
        theirs = _on_another_thread(connections.get)
        assert mine is not theirs
        assert len(connections.opened) == 2
        connections.close()

    def test_memory_connection_is_shared_by_every_thread(self):
        connections = SQLiteConnections(":memory:")
        assert _on_another_thread(connections.get) is connections.get()
        assert len(connections.opened) == 1
        connections.close()

    def test_memory_close_closes_the_shared_connection(self):
        connections = SQLiteConnections(":memory:")
        shared = connections.get()
        connections.close()
        _assert_closed(shared)

    def test_close_empties_the_opened_list(self, path):
        connections = SQLiteConnections(path)
        connections.get()
        connections.close()
        assert connections.opened == []

    def test_close_twice_is_harmless(self, path):
        connections = SQLiteConnections(path)
        connection = connections.get()
        connections.close()
        connections.close()
        _assert_closed(connection)

    def test_file_backed_get_reopens_after_close_with_committed_data(self, tmp_path):
        connections = SQLiteConnections(os.fspath(tmp_path / "db.sqlite"))
        first = connections.get()
        first.execute("CREATE TABLE t (x INTEGER)")
        first.execute("INSERT INTO t VALUES (7)")
        first.commit()
        connections.close()

        second = connections.get()
        assert second is not first
        assert second.execute("SELECT x FROM t").fetchall() == [(7,)]
        assert connections.opened == [second]
        connections.close()

    def test_a_thread_gets_a_fresh_connection_after_close(self, tmp_path):
        connections = SQLiteConnections(os.fspath(tmp_path / "db.sqlite"))
        seen = []
        opened, closed = threading.Event(), threading.Event()

        def worker():
            seen.append(connections.get())
            opened.set()
            closed.wait(timeout=5.0)
            seen.append(connections.get())

        thread = threading.Thread(target=worker)
        thread.start()
        assert opened.wait(timeout=5.0)
        connections.close()
        closed.set()
        thread.join(timeout=5.0)

        before, after = seen
        _assert_closed(before)
        assert after.execute("SELECT 1").fetchone() == (1,)
        connections.close()


@pytest.mark.parametrize("kind", sorted(STORES))
def test_close_closes_the_connections_of_every_thread(kind, tmp_path):
    store = STORES[kind](os.fspath(tmp_path / "store.sqlite"))
    captured = []
    worker = threading.Thread(target=lambda: captured.append(store._connection()))
    worker.start()
    worker.join(timeout=5.0)
    captured.append(store._connection())
    assert len(captured) == 2 and captured[0] is not captured[1]

    store.close()

    for connection in captured:
        with pytest.raises(sqlite3.ProgrammingError):
            connection.execute("SELECT 1")


@pytest.mark.parametrize("kind", sorted(STORES))
def test_close_closes_an_in_memory_store(kind):
    store = STORES[kind](":memory:")
    connection = store._connection()
    assert _on_another_thread(store._connection) is connection
    store.close()
    _assert_closed(connection)


@pytest.mark.parametrize("kind", sorted(STORES))
def test_closing_a_store_twice_is_harmless(kind, tmp_path):
    store = STORES[kind](os.fspath(tmp_path / "store.sqlite"))
    connection = store._connection()
    store.close()
    store.close()
    _assert_closed(connection)


@pytest.mark.parametrize("kind", sorted(STORES))
def test_a_closed_file_backed_store_answers_again(kind, tmp_path):
    store = STORES[kind](os.fspath(tmp_path / "store.sqlite"))
    probe = PROBES[kind]
    assert probe(store) == 0
    store.close()
    assert probe(store) == 0
    store.close()
