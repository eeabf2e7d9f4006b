"""SQLite-backed storage (the paper uses MySQL)."""

from repro.sqlstore.store import SQLiteTupleStore
from repro.sqlstore.dense_cache import DenseRegionCache, StoredRegion

__all__ = [
    "SQLiteTupleStore",
    "DenseRegionCache",
    "StoredRegion",
]
