"""The SQLite connections behind one store.

SQLite connections must not be shared across threads without care, so each
thread gets its own connection to a file-backed database.  An in-memory
database exists per connection, so ``":memory:"`` is one connection shared by
every thread (the stores serialize their writes with their own locks).
"""

from __future__ import annotations

import sqlite3
import threading
from typing import List, Optional


class SQLiteConnections:
    """Per-thread connections to ``path``; :meth:`close` closes every
    connection handed out, whichever thread opened it."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Every connection opened and not yet closed.
        self.opened: List[sqlite3.Connection] = []
        self._shared: Optional[sqlite3.Connection] = (
            self._open() if path == ":memory:" else None
        )

    def _open(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self._path, check_same_thread=False)
        with self._lock:
            self.opened.append(connection)
        return connection

    def get(self) -> sqlite3.Connection:
        """The calling thread's connection, opened on first use."""
        if self._shared is not None:
            return self._shared
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._open()
        return connection

    def close(self) -> None:
        """Close every open connection.  A file-backed database reopens on
        the next :meth:`get`; an in-memory one is gone."""
        with self._lock:
            doomed, self.opened = self.opened, []
            self._local = threading.local()
        for connection in doomed:
            connection.close()
