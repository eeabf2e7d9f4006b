"""Structured catalog change-sets for scoped invalidation.

A catalog mutation (``HiddenWebDatabase.apply_delta``) produces a
:class:`CatalogDelta`: the keys of every touched tuple plus a conservative
per-attribute summary of the *values* those tuples carried before and after
the change.  Each caching layer can then answer one question locally —
"could this cached object have surfaced a touched tuple?" — and retire only
what the change can actually affect, instead of cold-starting on a full
invalidation:

* a :class:`~repro.webdb.query.SearchQuery` cache entry changes only if some
  touched tuple version *matches* the query (:meth:`CatalogDelta.may_match_query`);
* a dense region changes only if some touched version lies inside its box
  (:meth:`CatalogDelta.may_intersect_sides` / :meth:`may_intersect_bounds`);
* a rerank feed changes only if its filter query can match a touched version
  (the hidden ranking is a per-row score, so untouched tuples never reorder);
* a live Get-Next stream's proof (a 1D verified prefix, the MD open boxes,
  TA's discovered tuples) holds only while no change in the source's
  :class:`ChangeLog` since the proof can match the stream's filter query, and
  a session's cached row only while no change since touched its key.

The summary is *conservative*: it may flag an object whose exact answer is
unchanged (each attribute is tested on its own, so two touched versions that
each satisfy a different predicate flag the query together), but it never
clears an object that a touched version matches —
that direction is what correctness rests on, and the randomized differential
suite checks it against the full-flush oracle.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.webdb.query import RangePredicate, Row, SearchQuery


def _is_numeric(value: object) -> bool:
    """Genuinely numeric: bool is an ``int`` subclass but never a slider value."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CatalogDelta:
    """Summary of one catalog mutation.

    ``keys`` are the primary keys of every tuple touched (inserted, updated,
    or deleted).  ``numeric_values`` maps each attribute to the sorted,
    distinct numeric values the touched *versions* (old and new) carried on
    it — the values, not their hull, so a repriced tuple does not flag the
    queries between its old and new price; ``categorical_values`` collects
    the exact value sets for membership predicates.  An attribute absent
    from both maps means no touched version carried a usable value on it —
    a predicate on that attribute can therefore never match a touched tuple.

    ``shard_deltas`` carries the per-shard sub-deltas of a federated
    mutation as ``(shard_index, delta)`` pairs; each sub-delta's
    ``namespace`` is the shard's cache namespace.
    """

    namespace: str
    keys: FrozenSet[object] = frozenset()
    numeric_values: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)
    categorical_values: Mapping[str, FrozenSet[object]] = field(default_factory=dict)
    upserts: int = 0
    deletes: int = 0
    shard_deltas: Tuple[Tuple[int, "CatalogDelta"], ...] = ()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
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
        keys: List[object] = []
        numbers: Dict[str, set] = {}
        values: Dict[str, set] = {}
        for row in touched_rows:
            keys.append(row[key_column])
            for attribute, value in row.items():
                if _is_numeric(value):
                    numeric = float(value)
                    if not math.isnan(numeric):
                        numbers.setdefault(attribute, set()).add(numeric)
                values.setdefault(attribute, set()).add(value)
        return CatalogDelta(
            namespace=namespace,
            keys=frozenset(keys),
            numeric_values={name: tuple(sorted(found)) for name, found in numbers.items()},
            categorical_values={
                name: frozenset(collected) for name, collected in values.items()
            },
            upserts=upserts,
            deletes=deletes,
        )

    @staticmethod
    def merge(
        namespace: str, deltas: Sequence["CatalogDelta"]
    ) -> "CatalogDelta":
        """Union several deltas into one under a new namespace."""
        keys: set = set()
        numbers: Dict[str, set] = {}
        values: Dict[str, set] = {}
        upserts = 0
        deletes = 0
        for delta in deltas:
            keys.update(delta.keys)
            upserts += delta.upserts
            deletes += delta.deletes
            for attribute, found in delta.numeric_values.items():
                numbers.setdefault(attribute, set()).update(found)
            for attribute, collected in delta.categorical_values.items():
                values.setdefault(attribute, set()).update(collected)
        return CatalogDelta(
            namespace=namespace,
            keys=frozenset(keys),
            numeric_values={name: tuple(sorted(found)) for name, found in numbers.items()},
            categorical_values={
                name: frozenset(collected) for name, collected in values.items()
            },
            upserts=upserts,
            deletes=deletes,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """True when the mutation touched no tuples."""
        return not self.keys

    def _admits_touched(self, predicate: RangePredicate) -> bool:
        """Does ``predicate`` admit a value some touched version carried?"""
        found = self.numeric_values.get(predicate.attribute, ())
        index = bisect_left(found, predicate.lower)
        while index < len(found) and found[index] <= predicate.upper:
            if predicate.matches(found[index]):
                return True
            index += 1
        return False

    # ------------------------------------------------------------------ #
    # Matching (the invalidation predicate of every layer)
    # ------------------------------------------------------------------ #
    def may_match_query(self, query: SearchQuery) -> bool:
        """Could any touched tuple version match ``query``?

        Conservative per-attribute test: every predicate of the query must
        admit at least one touched value on its attribute.  ``False`` is a
        proof that no touched version matches the query (each predicate is
        necessary for a row match), so the cached object survives.
        """
        if self.is_empty:
            return False
        if not all(self._admits_touched(predicate) for predicate in query.ranges):
            return False
        for predicate in query.memberships:
            touched = self.categorical_values.get(predicate.attribute)
            if touched is None or not (predicate.values & touched):
                return False
        return True

    def may_intersect_sides(self, sides: Iterable[RangePredicate]) -> bool:
        """Could any touched version lie inside the box with these sides?

        Used by the dense-region index: a region's crawled row set is stale
        only if a touched tuple version falls inside its bounding box.
        """
        return not self.is_empty and all(self._admits_touched(side) for side in sides)

    def may_intersect_bounds(
        self, bounds: Mapping[str, Tuple[float, float]]
    ) -> bool:
        """Box-intersection test over plain ``{attr: (lo, hi)}`` bounds
        (the persisted :class:`~repro.sqlstore.dense_cache.StoredRegion` form)."""
        return self.may_intersect_sides(
            RangePredicate(attribute, lo, hi) for attribute, (lo, hi) in bounds.items()
        )

    # ------------------------------------------------------------------ #
    def with_namespace(self, namespace: str) -> "CatalogDelta":
        """The same change-set attributed to a different cache namespace."""
        return CatalogDelta(
            namespace=namespace,
            keys=self.keys,
            numeric_values=self.numeric_values,
            categorical_values=self.categorical_values,
            upserts=self.upserts,
            deletes=self.deletes,
            shard_deltas=self.shard_deltas,
        )

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary for logs and the statistics panel."""
        return {
            "namespace": self.namespace,
            "touched_keys": len(self.keys),
            "upserts": self.upserts,
            "deletes": self.deletes,
            "attributes": sorted(
                set(self.numeric_values) | set(self.categorical_values)
            ),
            "shards": len(self.shard_deltas),
        }


def merge_shard_deltas(
    namespace: str, shard_deltas: Sequence[Tuple[int, CatalogDelta]]
) -> CatalogDelta:
    """Merge per-shard deltas into a federation-level delta that keeps the
    shard breakdown attached (for shard-namespace cache invalidation)."""
    merged = CatalogDelta.merge(namespace, [delta for _, delta in shard_deltas])
    return CatalogDelta(
        namespace=merged.namespace,
        keys=merged.keys,
        numeric_values=merged.numeric_values,
        categorical_values=merged.categorical_values,
        upserts=merged.upserts,
        deletes=merged.deletes,
        shard_deltas=tuple(shard_deltas),
    )


class ChangeLog:
    """One source's numbered sequence of catalog changes.

    What was read from the source before a change may be out of date after
    it: a session's cached rows, what a live Get-Next stream has proven from
    its answers, a result-cache answer still in flight, a rerank feed.  Each
    keeps the sequence number it is current to and asks :meth:`since` for
    the changes after it.  A full invalidation is logged as ``None``; it, and
    any change older than the bounded log's tail, can no longer be told
    apart, so :meth:`since` then reports that anything may have changed.
    """

    LIMIT = 32

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sequence = 0
        self._invalidations = 0
        self._recent: Deque[Tuple[int, Optional[CatalogDelta]]] = deque(maxlen=self.LIMIT)

    @property
    def sequence(self) -> int:
        """The number of the latest change (0 before any)."""
        return self._sequence

    @property
    def invalidations(self) -> int:
        """How many of the changes were full invalidations: what a derived
        object that survives a delta it cannot match (a rerank feed) is
        stamped with."""
        return self._invalidations

    def record(self, delta: Optional[CatalogDelta] = None) -> None:
        """Log one change: a delta, or ``None`` for a full invalidation."""
        with self._lock:
            self._sequence += 1
            if delta is None:
                self._invalidations += 1
            self._recent.append((self._sequence, delta))

    def since(self, stamp: int) -> Tuple[int, Optional[List[CatalogDelta]]]:
        """``(sequence, deltas)``: the latest change's number and every delta
        logged after ``stamp`` — ``None`` in place of the deltas when one of
        those changes was a full invalidation or has left the log."""
        with self._lock:
            sequence = self._sequence
            if sequence == stamp:
                return sequence, []
            if self._recent[0][0] > stamp + 1:
                return sequence, None
            deltas = [delta for number, delta in self._recent if number > stamp]
        if any(delta is None for delta in deltas):
            return sequence, None
        return sequence, deltas  # type: ignore[return-value]


class ChangeLogs:
    """One :class:`ChangeLog` per cache namespace, created on first use.

    Calling it returns a namespace's log; :meth:`record` logs a change in one
    namespace, or in every namespace at once."""

    def __init__(self) -> None:
        self._logs: Dict[str, ChangeLog] = {}

    def __call__(self, namespace: str) -> ChangeLog:
        log = self._logs.get(namespace)
        if log is None:
            log = self._logs.setdefault(namespace, ChangeLog())
        return log

    def record(
        self, namespace: Optional[str], delta: Optional[CatalogDelta] = None
    ) -> None:
        """Log ``delta`` (``None``: a full invalidation) in ``namespace``'s
        log, or in every log when ``namespace`` is ``None``."""
        logs = list(self._logs.values()) if namespace is None else [self(namespace)]
        for log in logs:
            log.record(delta)
