"""The result cache's containment lookup before ``BoxIndex``: a linear scan.

"Any live covering entry in scope whose query contains ``Q``", evaluated over
a :class:`~repro.webdb.cache.QueryResultCache`'s own ``_entries``.  The
indexed lookup must find a covering entry exactly when this scan does; which
entry answers may differ, the derived rows may not (every live covering
entry holds every matching tuple in rank order).
"""

from __future__ import annotations

from typing import Optional

from repro.webdb.cache import CacheKey, QueryResultCache
from repro.webdb.query import SearchQuery


def covering_scan(
    cache: QueryResultCache, namespace: str, query: SearchQuery, system_k: int
) -> Optional[CacheKey]:
    """The first live covering entry of ``(namespace, system_k)`` whose
    query contains ``query``, or ``None``."""
    for key, result in cache._entries.items():
        if key[0] != namespace or key[1] != system_k:
            continue
        if result.covers_query and result.query.contains(query):
            return key
    return None


def covering_count(cache: QueryResultCache) -> int:
    """How many stored entries may answer subsets."""
    return sum(1 for result in cache._entries.values() if result.covers_query)
