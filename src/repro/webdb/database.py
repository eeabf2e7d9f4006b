"""The simulated hidden web database.

:class:`HiddenWebDatabase` plays the role of Blue Nile or Zillow: it owns a
catalog (a :class:`~repro.dataset.table.ColumnTable`), a *hidden* system
ranking function, and exposes nothing but the public top-k search interface.
The reranking service is only allowed to talk to it through
:meth:`HiddenWebDatabase.search`; the ground-truth helpers
(:meth:`all_matches`, :meth:`true_ranking`) exist solely so the tests and the
benchmark harness can compare against brute force, mirroring how the paper's
authors validated against the live sites.

Queries are answered by the vectorized columnar engine
(:class:`~repro.webdb.engine.IndexedColumnarEngine`) over the index structures
of :mod:`repro.webdb.indexes`.  The seed's row-at-a-time scan is kept as a test
oracle under ``tests/reference/``: a subclass overriding
:meth:`HiddenWebDatabase._make_engine`.  Both preserve the top-k *contract*
exactly: overflow/valid/underflow, stable hidden-rank ordering, per-query
latency and query counting.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.dataset.schema import Schema
from repro.dataset.table import ColumnTable, transpose
from repro.exceptions import QueryError
from repro.webdb.counters import QueryCounter
from repro.webdb.delta import CatalogDelta
from repro.webdb.engine import ExecutionEngine, IndexedColumnarEngine, QueryPlan
from repro.webdb.indexes import ColumnarCatalog, RankView
from repro.webdb.interface import Outcome, SearchResult, TopKInterface
from repro.webdb.latency import LatencyModel
from repro.webdb.query import Row, SearchQuery
from repro.webdb.ranking import SystemRankingFunction


def stream_sorted_columns(
    rows: Iterable[Mapping[str, object]],
    schema: Schema,
    system_ranking: SystemRankingFunction,
    validate: bool = True,
) -> Dict[str, List[object]]:
    """Read a catalog once into hidden-rank-ordered columns.

    The one catalog-load path builds no row dictionary: a source with
    ``iter_columns`` (a :class:`~repro.dataset.table.ColumnTable`, a
    :class:`~repro.sqlstore.store.SQLiteTupleStore`) hands over column
    batches, and any other iterable of row dictionaries is transposed once.
    Sort keys are read through :class:`~repro.webdb.indexes.RankView`, and
    the rank order is applied to every column once.  Columns come out in
    the source's order (the schema's for an empty input).  ``validate``
    runs ``schema.validate_columns``; a store validated its rows on upsert,
    so its loaders turn the check off.
    """
    source = getattr(rows, "iter_columns", None)
    columns: Dict[str, List[object]] = {}
    for batch in source() if source is not None else (transpose(rows),):
        if not columns:
            columns = {name: [] for name in batch}
        for name, column in columns.items():
            column.extend(batch[name])
    size = len(next(iter(columns.values()), ()))
    if not size:
        return {name: [] for name in schema.columns()}
    if validate:
        schema.validate_columns(columns)
    key_of = system_ranking.sort_key(schema.key)
    sort_keys = [key_of(RankView(columns, rank)) for rank in range(size)]
    order = sorted(range(size), key=sort_keys.__getitem__)
    del sort_keys
    if size > 1:  # one index would make itemgetter return a value, not a tuple
        take = itemgetter(*order)
        for column in columns.values():
            column[:] = take(column)
    return columns


class HiddenWebDatabase(TopKInterface):
    """In-process stand-in for a web database reachable only via top-k search.

    Parameters
    ----------
    catalog:
        The full tuple collection (never exposed directly to clients).
    schema:
        Public schema advertised by the search form.
    system_ranking:
        The proprietary ranking function used to order results.
    system_k:
        Number of tuples returned per query.
    latency:
        Per-query latency model (accounting and/or sleeping).
    name:
        Display name used in logs and the service's source registry.
    """

    def __init__(
        self,
        catalog: ColumnTable,
        schema: Schema,
        system_ranking: SystemRankingFunction,
        system_k: int = 20,
        latency: Optional[LatencyModel] = None,
        name: str = "webdb",
    ) -> None:
        # One validating pass and one permutation per column; the columnar
        # catalog (plus its key→rank map) is the only copy of the data and
        # everything row-shaped is materialized lazily from it.
        columns = stream_sorted_columns(catalog, schema, system_ranking)
        self._init_from_columnar(
            ColumnarCatalog.from_columns(columns, list(columns), schema.key),
            schema, system_ranking, system_k, latency, name,
        )

    @classmethod
    def from_columnar(
        cls,
        columnar: ColumnarCatalog,
        schema: Schema,
        system_ranking: SystemRankingFunction,
        *,
        system_k: int = 20,
        latency: Optional[LatencyModel] = None,
        name: str = "webdb",
    ) -> "HiddenWebDatabase":
        """Wrap an already rank-ordered :class:`ColumnarCatalog` directly.

        :func:`~repro.webdb.build.build_source` builds every shard this way,
        and it is the seam by which a test or bench wraps a catalog it built
        itself (a chosen storage layout, a positional slice).  The caller
        vouches that the catalog's columns are in hidden-rank order under
        ``system_ranking``.
        """
        database = cls.__new__(cls)
        database._init_from_columnar(
            columnar, schema, system_ranking, system_k, latency, name
        )
        return database

    def _init_from_columnar(
        self,
        columnar: ColumnarCatalog,
        schema: Schema,
        system_ranking: SystemRankingFunction,
        system_k: int,
        latency: Optional[LatencyModel],
        name: str,
    ) -> None:
        if system_k <= 0:
            raise ValueError("system_k must be positive")
        self._schema = schema
        self._system_k = system_k
        self._latency = latency or LatencyModel.disabled()
        self._counter = QueryCounter()
        self._lock = threading.Lock()
        self.name = name
        self._system_ranking = system_ranking
        if len(columnar.rank_of) != columnar.size:
            raise QueryError("catalog contains duplicate tuple keys")
        self._publish(columnar)

    def _publish(self, columnar: ColumnarCatalog) -> None:
        """Serve ``columnar``: catalog and engine are one reference, assigned
        once both exist, so a reader's snapshot is never half a delta.  The
        ground-truth memos reset after it — their readers take the memo
        first, so a stale value only ever lands in a discarded dictionary."""
        self._published = (columnar, self._make_engine(columnar))
        self._attribute_values_memo: Dict[str, List[float]] = {}
        self._multiplicity_memo: Dict[str, Dict[float, int]] = {}

    @property
    def _columnar(self) -> ColumnarCatalog:
        return self._published[0]

    @property
    def _engine(self) -> ExecutionEngine:
        return self._published[1]

    @property
    def _ranked_rows(self) -> Sequence[Row]:
        """Lazy row facade standing in for the seed's ``List[Row]`` copy."""
        return self._columnar.rows()

    def _make_engine(self, columnar: ColumnarCatalog) -> ExecutionEngine:
        """The engine answering queries over ``columnar``; called at
        construction and for every :meth:`apply_delta` successor.  The
        reference oracles under ``tests/reference/`` override this."""
        return IndexedColumnarEngine(columnar)

    # ------------------------------------------------------------------ #
    # TopKInterface
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def system_k(self) -> int:
        return self._system_k

    def search(self, query: SearchQuery) -> SearchResult:
        """Execute a top-k query.

        Returns the first ``system_k`` matching tuples in hidden-rank order and
        classifies the outcome as overflow / valid / underflow.
        """
        query.validate(self._schema)
        self._counter.increment()
        (elapsed,) = self._latency.delay()
        matches, overflow = self._engine.execute(query, self._system_k)
        return self._build_result(query, matches, overflow, elapsed)

    def search_many(self, queries: Sequence[SearchQuery]) -> List[SearchResult]:
        """Execute a batch of top-k queries in one call.

        Each query is counted and charged its own latency draw, in batch
        order, exactly as if issued through :meth:`search`; a sleeping
        latency model sleeps once, for the longest draw, because the batch
        is one round trip.  The batch also amortizes the execution engine's
        per-group planning work (shared bound spans and candidate lists).
        Validation runs for the whole batch up front, so a rejected query
        costs no query count at all.
        """
        materialized = list(queries)
        for query in materialized:
            query.validate(self._schema)
        if not materialized:
            return []
        self._counter.increment(len(materialized))
        elapsed = self._latency.delay(len(materialized))
        executed = self._engine.execute_many(materialized, self._system_k)
        return [
            self._build_result(query, matches, overflow, seconds)
            for query, (matches, overflow), seconds in zip(materialized, executed, elapsed)
        ]

    def _build_result(
        self, query: SearchQuery, matches: List[Row], overflow: bool, elapsed: float
    ) -> SearchResult:
        if not matches:
            outcome = Outcome.UNDERFLOW
        elif overflow:
            outcome = Outcome.OVERFLOW
        else:
            outcome = Outcome.VALID
        return SearchResult(
            query=query,
            rows=tuple(matches),
            outcome=outcome,
            system_k=self._system_k,
            elapsed_seconds=elapsed,
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def has_key(self, key: object) -> bool:
        """True when the catalog currently holds a tuple with this key."""
        return key in self._columnar.rank_of

    def apply_delta(
        self,
        upserts: Iterable[Row] = (),
        deletes: Iterable[object] = (),
    ) -> CatalogDelta:
        """Apply a catalog mutation and return its :class:`CatalogDelta`.

        ``deletes`` (keys) are applied before ``upserts`` (full rows), so an
        upsert of a deleted key re-inserts it.  The returned delta summarizes
        every touched tuple *version* — the old row of each update or delete
        and the new row of each upsert — which is exactly what the caching
        layers need to decide what a change can affect.  Raises
        :class:`QueryError` on an unknown or repeated delete key and
        :class:`~repro.exceptions.SchemaError` on an invalid row; the catalog
        is not modified on error.

        The work follows the change, not the catalog: old versions are
        looked up by key, each new version bisects the served rank order
        (``log n`` hidden-score calls on :meth:`ColumnarCatalog.view`, which
        builds no row) and the successor is
        :meth:`ColumnarCatalog.spliced` from the served catalog.  ``_lock``
        serializes writers only; searches keep the snapshot they started on.
        """
        upsert_rows = [dict(row) for row in upserts]
        delete_keys = list(deletes)
        if upsert_rows:
            self._schema.validate_columns(transpose(upsert_rows, self._schema.columns()))
        key_column = self._schema.key
        with self._lock:
            columnar = self._columnar
            rank_of = columnar.rank_of
            removed: Dict[object, int] = {}  # key → rank of the version leaving
            touched: List[Row] = []
            for key in delete_keys:
                if key not in rank_of or key in removed:
                    raise QueryError(f"cannot delete unknown tuple key {key!r}")
                removed[key] = rank_of[key]
                touched.append(columnar.materialize(rank_of[key]))
            pending: Dict[object, Row] = {}  # key → its last upserted version
            for row in upsert_rows:
                key = row[key_column]
                if key in pending:
                    touched.append(pending[key])
                elif key in rank_of and key not in removed:
                    removed[key] = rank_of[key]
                    touched.append(columnar.materialize(rank_of[key]))
                touched.append(row)
                pending[key] = row
            if not touched:
                return CatalogDelta(namespace=self.name)
            # Rows about to leave are still in order in the served catalog,
            # so every insertion point is a bisect over its full rank order.
            sort_key = self._system_ranking.sort_key(key_column)
            incoming = sorted(
                ((sort_key(row), row) for row in pending.values()),
                key=itemgetter(0),
            )

            def rank_key(rank: int):
                return sort_key(columnar.view(rank))

            ranks = range(columnar.size)
            inserted = [
                (bisect_left(ranks, target, key=rank_key), row)
                for target, row in incoming
            ]
            self._publish(columnar.spliced(sorted(removed.values()), inserted))
            return CatalogDelta.from_rows(
                self.name,
                key_column,
                touched,
                upserts=len(upsert_rows),
                deletes=len(delete_keys),
            )

    def queries_issued(self) -> int:
        """Number of search queries served so far."""
        return self._counter.count

    def reset_query_count(self) -> None:
        """Reset the query counter (used between benchmark repetitions)."""
        self._counter.reset()

    # ------------------------------------------------------------------ #
    # Ground-truth helpers (tests / benchmark harness only)
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of tuples in the catalog."""
        return self._columnar.size

    def all_matches(self, query: SearchQuery) -> List[Row]:
        """Every tuple matching ``query`` (bypasses the top-k truncation)."""
        return [row for row in self._ranked_rows if query.matches(row)]

    def true_ranking(
        self,
        query: SearchQuery,
        score: Callable[[Row], float],
        limit: Optional[int] = None,
    ) -> List[Row]:
        """Ground-truth reranking of the query answers under ``score``
        (ascending), used to validate the algorithms."""
        matches = self.all_matches(query)
        matches.sort(key=lambda row: (score(row), str(row[self._schema.key])))
        if limit is not None:
            return matches[:limit]
        return matches

    def attribute_values(self, attribute: str) -> List[float]:
        """All values of a numeric attribute (ground truth for tests).

        Memoized per attribute (the seed re-scanned every row on every
        call); :meth:`apply_delta` invalidates the memo.  A fresh list is
        returned so callers can sort or mutate their copy.
        """
        self._schema.require_numeric(attribute)
        memo = self._attribute_values_memo
        cached = memo.get(attribute)
        if cached is None:
            column = self._columnar.raw_column(attribute)
            assert column is not None  # require_numeric guarantees the column
            cached = [float(value) for value in column]  # type: ignore[arg-type]
            memo[attribute] = cached
        return list(cached)

    def value_multiplicity(self, attribute: str) -> Dict[float, int]:
        """Histogram of value multiplicities for ``attribute`` — used to find
        general-positioning violations (values shared by more than ``k``
        tuples).  Memoized per attribute alongside :meth:`attribute_values`.
        """
        memo = self._multiplicity_memo
        cached = memo.get(attribute)
        if cached is None:
            counts: Dict[float, int] = {}
            for value in self.attribute_values(attribute):
                counts[value] = counts.get(value, 0) + 1
            memo[attribute] = counts
            cached = counts
        return dict(cached)

    @property
    def engine_name(self) -> str:
        """Name of the active execution engine (``"indexed"``, unless a
        reference oracle overrode :meth:`_make_engine`)."""
        return self._engine.name

    @property
    def columnar_backend(self) -> str:
        """Resolved columnar storage backend (``"list"``/``"array"``/``"numpy"``)."""
        return self._columnar.backend

    def explain(self, query: SearchQuery) -> Optional[QueryPlan]:
        """The plan the indexed engine would pick for ``query``; ``None``
        under an engine that does not plan (diagnostics / tests only)."""
        explain = getattr(self._engine, "explain", None)
        if explain is None:
            return None
        return explain(query, self._system_k)

    def describe(self) -> str:
        """One-line description for logs and the source registry."""
        return (
            f"{self.name}: {self.size} tuples, k={self._system_k}, "
            f"ranking={self._system_ranking.describe()}, engine={self._engine.name}, "
            f"backend={self._columnar.backend}"
        )
