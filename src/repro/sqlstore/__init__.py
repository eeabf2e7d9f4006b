"""SQLite-backed storage (the paper uses MySQL)."""

from repro.sqlstore.store import SQLiteTupleStore
from repro.sqlstore.dense_cache import DenseRegionCache, StoredRegion
from repro.sqlstore.result_store import ResultCacheStore

__all__ = [
    "SQLiteTupleStore",
    "DenseRegionCache",
    "StoredRegion",
    "ResultCacheStore",
]
