"""Structured catalog change-sets for scoped invalidation.

A catalog mutation (``HiddenWebDatabase.apply_delta``) produces a
:class:`CatalogDelta`: the keys of every touched tuple plus the touched tuple
*versions* themselves — the row each tuple had before the change and the row
it has after it.  Each caching layer can then answer one question locally —
"could this cached object have surfaced a touched version?" — and retire only
what the change can actually affect, instead of cold-starting:

* a :class:`~repro.webdb.query.SearchQuery` cache entry changes only if some
  touched version *matches* the query (:meth:`CatalogDelta.may_match_query`);
* a dense region is a box of ranges, so it changes only if some touched
  version matches it — the same :meth:`CatalogDelta.may_match_query` test;
* a rerank feed's verified prefix changes only if some touched version that
  matches its filter query ranks at or before the prefix's last row (the
  hidden ranking is a per-row score, so untouched tuples never reorder);
* a live Get-Next stream's proof (a 1D verified prefix, the MD open boxes,
  TA's sorted-access cursors) holds only while no change in the source's
  :class:`ChangeLog` since the proof can match the stream's filter query, and
  a session's cached row only while no change since touched its key.

The test is *exact*: an object is flagged only when one single version
satisfies every one of its predicates.  Two versions that each satisfy a
different predicate flag nothing.  Each range predicate is first tested
against the touched values of its attribute alone (a bisection); only the
versions that pass every such test are matched whole.  The
randomized differential suite checks the result against a freshly built
reranker over the same changed source.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.webdb.query import Row, SearchQuery


@dataclass(frozen=True)
class CatalogDelta:
    """Summary of one catalog mutation.

    ``keys`` are the primary keys of every tuple touched (inserted, updated,
    or deleted); ``versions`` are the touched rows — the old version of each
    updated or deleted tuple and the new version of each upserted one — so a
    repriced tuple flags what its old or its new row matches, never what
    lies between them.

    ``shard_deltas`` carries the per-shard sub-deltas of a federated
    mutation as ``(shard_index, delta)`` pairs; each sub-delta's
    ``namespace`` is the shard's cache namespace.
    """

    namespace: str
    keys: FrozenSet[object] = frozenset()
    versions: Tuple[Row, ...] = ()
    upserts: int = 0
    deletes: int = 0
    shard_deltas: Tuple[Tuple[int, "CatalogDelta"], ...] = ()
    _columns: Dict[str, Tuple[Tuple[float, ...], Tuple[int, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def from_rows(
        namespace: str,
        key_column: str,
        touched_rows: Iterable[Row],
        upserts: int = 0,
        deletes: int = 0,
    ) -> "CatalogDelta":
        """Build a delta from every touched tuple *version*.

        ``touched_rows`` must include the old version of each updated tuple,
        the new version of each upserted tuple, and each deleted tuple —
        a cached answer is stale when any of those versions matched it.
        """
        versions = tuple(touched_rows)
        return CatalogDelta(
            namespace=namespace,
            keys=frozenset(row[key_column] for row in versions),
            versions=versions,
            upserts=upserts,
            deletes=deletes,
        )

    @property
    def is_empty(self) -> bool:
        """True when the mutation touched no tuples."""
        return not self.keys

    def _column(self, attribute: str) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
        """The numbers the touched versions carry on ``attribute``, sorted,
        beside the positions in ``versions`` that carry them (built once)."""
        column = self._columns.get(attribute)
        if column is None:
            pairs = sorted(
                (float(value), index)
                for index, row in enumerate(self.versions)
                if isinstance(value := row.get(attribute), (int, float))
                and not math.isnan(value)
            )
            column = (
                tuple(value for value, _ in pairs),
                tuple(index for _, index in pairs),
            )
            self._columns[attribute] = column
        return column

    def matching_versions(self, query: SearchQuery) -> Iterator[Row]:
        """The touched versions that match ``query``, lazily.

        Each range predicate bisects its attribute's touched values; only
        the versions inside every such slice are matched whole."""
        positions: Optional[set] = None
        for predicate in query.ranges:
            values, order = self._column(predicate.attribute)
            inside = order[
                bisect_left(values, predicate.lower) : bisect_right(values, predicate.upper)
            ]
            positions = set(inside) if positions is None else positions.intersection(inside)
            if not positions:
                return iter(())
        versions = self.versions
        found = versions if positions is None else (versions[index] for index in positions)
        return (row for row in found if query.matches(row))

    def best_corner(self, ranking) -> Optional[Row]:
        """A point no touched version beats under the monotone ``ranking``:
        on each ranking attribute, the touched number the ranking prefers
        (``None`` when some version carries no number there)."""
        corner = {}
        for attribute in ranking.attributes:
            values, _ = self._column(attribute)
            if len(values) < len(self.versions):
                return None
            corner[attribute] = values[0] if ranking.weight(attribute) > 0 else values[-1]
        return corner

    def may_match_query(self, query: SearchQuery) -> bool:
        """Does some touched version match ``query``?  ``False`` proves that
        the query's answer is unchanged, so a cached object survives."""
        return next(self.matching_versions(query), None) is not None

    def with_namespace(self, namespace: str) -> "CatalogDelta":
        """The same change-set attributed to a different cache namespace."""
        return replace(self, namespace=namespace)


def merge_shard_deltas(
    namespace: str, shard_deltas: Sequence[Tuple[int, CatalogDelta]]
) -> CatalogDelta:
    """Merge per-shard deltas into a federation-level delta that keeps the
    shard breakdown attached (for shard-namespace cache invalidation)."""
    parts = [delta for _, delta in shard_deltas]
    return CatalogDelta(
        namespace=namespace,
        keys=frozenset(chain.from_iterable(delta.keys for delta in parts)),
        versions=tuple(chain.from_iterable(delta.versions for delta in parts)),
        upserts=sum(delta.upserts for delta in parts),
        deletes=sum(delta.deletes for delta in parts),
        shard_deltas=tuple(shard_deltas),
    )


class ChangeLog:
    """One source's numbered sequence of catalog deltas.

    What was read from the source before a delta may be out of date after
    it: a session's cached rows, what a live Get-Next stream has proven from
    its answers, a result-cache answer still in flight.  Each keeps the
    sequence number it is current to and asks :meth:`since` for the deltas
    after it.  A delta older than the bounded log's tail can no longer be
    read back, so :meth:`since` then reports that anything may have changed.
    A delta is the one change the log knows: a source that sends none is
    refreshed by a restart.
    """

    LIMIT = 32

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sequence = 0
        self._recent: Deque[Tuple[int, CatalogDelta]] = deque(maxlen=self.LIMIT)

    @property
    def sequence(self) -> int:
        """The number of the latest delta (0 before any)."""
        return self._sequence

    def record(self, delta: CatalogDelta) -> None:
        """Log one delta."""
        with self._lock:
            self._sequence += 1
            self._recent.append((self._sequence, delta))

    def since(self, stamp: int) -> Tuple[int, Optional[List[CatalogDelta]]]:
        """``(sequence, deltas)``: the latest delta's number and every delta
        logged after ``stamp`` — ``None`` in place of the deltas when one of
        them has left the log."""
        with self._lock:
            sequence = self._sequence
            if sequence == stamp:
                return sequence, []
            if self._recent[0][0] > stamp + 1:
                return sequence, None
            return sequence, [delta for number, delta in self._recent if number > stamp]


class ChangeLogs:
    """One :class:`ChangeLog` per cache namespace, created on first use:
    calling it returns a namespace's log."""

    def __init__(self) -> None:
        self._logs: Dict[str, ChangeLog] = {}

    def __call__(self, namespace: str) -> ChangeLog:
        log = self._logs.get(namespace)
        if log is None:
            log = self._logs.setdefault(namespace, ChangeLog())
        return log
