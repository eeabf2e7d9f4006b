"""Columnar index structures backing the vectorized execution engine.

:class:`ColumnarCatalog` is the storage layer of the indexed execution engine
(:mod:`repro.webdb.engine`): the hidden-rank-ordered catalog transposed into
columns, plus the per-attribute access structures the query planner consumes:

* **raw columns** — one column per attribute, in hidden-rank order, holding
  the values exactly as they appear in the catalog, so result rows
  materialized from columns equal the naive scan's row dictionaries, key
  order included.  Under the buffer backends
  (:mod:`repro.webdb.arrays`), uniformly-typed numeric columns are packed
  into ``array('d')``/``array('q')`` buffers (numpy views when numpy is
  importable) — 8 bytes per value instead of a pointer plus a boxed object;
* **float columns** — a parallel ``float``-converted column for every column
  whose values are all numeric, used by the tight range-filter loops;
* **sorted value arrays** — ``(sorted values, rank positions)`` pairs usable
  with :mod:`bisect` for selectivity estimation and candidate extraction;
* **posting lists** — per distinct value, the sorted rank positions holding
  it, used for IN-predicate candidates;
* **key → rank** — O(1) lookup of a tuple's position in the hidden ranking.

Everything beyond the raw columns and the key→rank map is built lazily, on
first use, under a lock: most attributes of a catalog are never constrained,
and databases are constructed eagerly all over the test suite.

Row *materialization* is lazy in the other direction: the catalog never
stores rows.  :meth:`ColumnarCatalog.materialize` builds a tuple's read-only
:data:`~repro.webdb.query.Row` from the columns on demand (every layer above
shares that object; none copies it), and :meth:`ColumnarCatalog.rows`
exposes the whole catalog as a lazy, read-only row sequence so reference
paths (the naive scan engine, ground-truth helpers) keep working without the
catalog ever being held twice in memory.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.dataset.schema import is_numeric
from repro.webdb import arrays
from repro.webdb.query import Row, adopt_row


class CatalogRowView(Sequence):
    """Lazy, read-only row-sequence facade over a :class:`ColumnarCatalog`.

    Each access materializes the tuple's read-only row, so holding the view
    costs nothing beyond the catalog itself.  Used wherever the seed code
    kept a ``List[Row]`` of the ranked catalog (the naive reference engine,
    ground-truth scans).
    """

    __slots__ = ("_catalog",)

    def __init__(self, catalog: "ColumnarCatalog") -> None:
        self._catalog = catalog

    def __len__(self) -> int:
        return self._catalog.size

    def __getitem__(self, index):
        size = self._catalog.size
        if isinstance(index, slice):
            return [self._catalog.materialize(i) for i in range(*index.indices(size))]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"row index {index} out of range (0..{size - 1})")
        return self._catalog.materialize(index)

    def __iter__(self) -> Iterator[Row]:
        materialize = self._catalog.materialize
        for rank in range(self._catalog.size):
            yield materialize(rank)


class RankView:
    """The tuple at one rank, read through ``[]`` / ``get`` straight from the
    columns: enough for a ranking function's sort key, with no row built."""

    __slots__ = ("_raw", "_rank")

    def __init__(self, raw: Mapping[str, Sequence[object]], rank: int) -> None:
        self._raw = raw
        self._rank = rank

    def __getitem__(self, name: str) -> object:
        return self._raw[name][self._rank]

    def get(self, name: str, default: object = None) -> object:
        column = self._raw.get(name)
        return default if column is None else column[self._rank]


class ColumnarCatalog:
    """Column-major snapshot of a catalog in hidden-rank order.

    Parameters
    ----------
    ranked_rows:
        The catalog rows, already sorted by the hidden system ranking.  The
        rows are transposed at construction and **not retained** — the
        columns are the only copy of the catalog.
    column_order:
        Column names in the order the naive scan's row dictionaries carry
        them; materialized rows preserve it so both engines return
        byte-identical dictionaries.
    key_column:
        Name of the unique tuple identifier column.
    backend:
        Storage layout of numeric columns and rank arrays (see
        :mod:`repro.webdb.arrays`).  The default ``"buffer"`` is observed,
        not configured: numpy views when numpy is importable, stdlib
        ``array`` otherwise.  The layout differential tests and the scale
        bench force ``"array"``, ``"numpy"`` or ``"list"`` (the seed's
        pure-Python reference layout) here — this is the only signature the
        choice appears in.
    """

    def __init__(
        self,
        ranked_rows: Sequence[Mapping[str, object]],
        column_order: Sequence[str],
        key_column: str,
        backend: str = "buffer",
    ) -> None:
        columns: Dict[str, List[object]] = {
            name: [row[name] for row in ranked_rows] for name in column_order
        }
        self._init_from_columns(columns, column_order, key_column, backend)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[object]],
        column_order: Sequence[str],
        key_column: str,
        backend: str = "buffer",
    ) -> "ColumnarCatalog":
        """Build a catalog directly from rank-ordered columns.

        This is the streaming-load path: callers that read a catalog batch
        by batch (e.g. from :class:`~repro.sqlstore.store.SQLiteTupleStore`)
        accumulate columns and never materialize row dictionaries at all.
        The column sequences are adopted as-is (lists are not copied).
        """
        adopted = {
            name: column if isinstance(column, list) else list(column)
            for name, column in ((name, columns[name]) for name in column_order)
        }
        catalog = cls.__new__(cls)
        catalog._init_from_columns(adopted, column_order, key_column, backend)
        return catalog

    def _init_from_columns(
        self,
        columns: Dict[str, List[object]],
        column_order: Sequence[str],
        key_column: str,
        backend: str,
        rank_of: Optional[Dict[object, int]] = None,
    ) -> None:
        self._order: List[str] = list(column_order)
        self._names = frozenset(self._order)
        self.key_column = key_column
        self.backend = arrays.resolve_backend(backend)
        sizes = {len(column) for column in columns.values()} or {0}
        if len(sizes) > 1:
            raise ValueError(f"ragged catalog columns: {sorted(sizes)}")
        self.size = sizes.pop()
        # Pack uniformly-typed numeric columns into compact buffers; object
        # columns (keys, categoricals, mixed/NaN columns) stay as lists so
        # materialized rows return the original value objects.
        self._raw: Dict[str, object] = {
            name: arrays.pack_raw_column(columns[name], self.backend)
            for name in self._order
        }
        #: key → position in the hidden global ranking (``has_key``, deltas).
        self.rank_of: Dict[object, int] = (
            {key: rank for rank, key in enumerate(self._raw[key_column])}
            if rank_of is None
            else rank_of
        )
        self._lock = threading.RLock()
        self._float_columns: Dict[str, Optional[object]] = {}
        self._sorted_indexes: Dict[str, Optional[Tuple[object, object]]] = {}
        self._postings: Dict[str, Optional[Dict[object, List[int]]]] = {}
        self._positions: Optional[Sequence[int]] = None

    def spliced(
        self,
        removed: Sequence[int],
        inserted: Sequence[Tuple[int, Mapping[str, object]]],
    ) -> "ColumnarCatalog":
        """The successor catalog of a delta, built beside this one.

        ``removed`` are ranks of this catalog, ascending; ``inserted`` are
        ``(before_rank, row)`` pairs in their final order (``size`` appends;
        a removed ``before_rank`` takes that tuple's place).  Each column is
        assembled from slices of its predecessor — one memcpy plus a step
        per touched row — and laid out as a from-scratch build would: packed
        while the inserted values are exactly its type, otherwise re-offered
        to :func:`arrays.pack_raw_column` (O(n) only when the delta changed
        whether the column is uniformly typed).  This catalog is never
        mutated; the successor's lazy structures start empty.
        """
        # Events in old-rank order, an insert before the drop of the same
        # rank; then the successor as pieces: old ranks [start, stop) kept,
        # followed by ``row`` when the event was an insert.
        events = sorted(
            [(rank, None) for rank in removed] + list(inserted),
            key=lambda event: (event[0], event[1] is None),
        )
        pieces: List[Tuple[int, int, Optional[Mapping[str, object]]]] = []
        previous = 0
        for rank, row in events + [(self.size, None)]:
            pieces.append((previous, rank, row))
            previous = rank + 1 if row is None else rank
        raw: Dict[str, object] = {}
        for name in self._order:
            column = self._raw[name]
            if isinstance(column, array) and inserted:
                values = [row[name] for _, row in inserted]
                packed = arrays.pack_raw_column(values, self.backend)
                if getattr(packed, "typecode", None) != column.typecode:
                    column = column.tolist()
            out = raw[name] = column[:0]
            for start, stop, row in pieces:
                out += column[start:stop]
                if row is not None:
                    out.append(row[name])
        old_keys, keys = self._raw[self.key_column], raw[self.key_column]
        rank_of = dict(self.rank_of)
        for rank in removed:
            del rank_of[old_keys[rank]]
        position = 0
        for start, stop, row in pieces:
            landed = position + stop - start
            if position != start:  # only a piece that shifted is re-numbered
                rank_of.update(zip(keys[position:landed], range(position, landed)))
            position = landed
            if row is not None:
                rank_of[row[self.key_column]] = position
                position += 1
        if len(rank_of) != len(keys):
            raise ValueError("spliced catalog would hold duplicate tuple keys")
        successor = ColumnarCatalog.__new__(ColumnarCatalog)
        successor._init_from_columns(raw, self._order, self.key_column, self.backend, rank_of)
        return successor

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def column_order(self) -> List[str]:
        """Column names in materialization order."""
        return list(self._order)

    def has_column(self, name: str) -> bool:
        """True when the catalog stores a column called ``name``."""
        return name in self._names

    def raw_column(self, name: str) -> Optional[Sequence[object]]:
        """The raw value column of ``name`` in rank order (shared, do not
        mutate), or ``None`` for an unknown column.  A list under the
        ``"list"`` backend; possibly a compact buffer under the others."""
        return self._raw.get(name)

    def rows(self) -> CatalogRowView:
        """The catalog as a lazy read-only sequence of rows."""
        return CatalogRowView(self)

    def scan_positions(self) -> Sequence[int]:
        """The full rank-position sequence, in the backend's layout (cached)."""
        if self._positions is None:
            with self._lock:
                if self._positions is None:
                    self._positions = arrays.position_space(self.size, self.backend)
        return self._positions

    # ------------------------------------------------------------------ #
    # Lazy index structures
    # ------------------------------------------------------------------ #
    def float_column(self, name: str) -> Optional[Sequence[float]]:
        """``float``-converted column for fully numeric columns.

        Returns ``None`` when the column is unknown or holds any non-numeric
        value (including ``bool`` and ``NaN``, which range predicates reject)
        — the engine then falls back to the per-value check the naive scan
        performs.  The result is backend-typed: a list under ``"list"``, an
        ``array('d')`` under ``"array"``, a float64 ndarray under ``"numpy"``.
        """
        if name not in self._float_columns:
            with self._lock:
                if name not in self._float_columns:
                    self._float_columns[name] = self._build_float_column(name)
        return self._float_columns[name]

    def _build_float_column(self, name: str) -> Optional[Sequence[float]]:
        column = self._raw.get(name)
        if column is None:
            return None
        if arrays.is_float_buffer(column):
            # Raw buffers are packed only from NaN-free pure-float columns,
            # so the raw buffer *is* the float column — zero extra memory
            # (the numpy backend wraps it in a zero-copy ndarray view).
            return arrays.float_buffer(column, self.backend)
        if arrays.is_int_buffer(column):
            return arrays.float_buffer([float(value) for value in column], self.backend)
        # Object column: one fused pass that converts as it validates and
        # bails on the first non-numeric value (the seed implementation
        # scanned the column twice — an ``all(is_numeric)`` pass, then a
        # conversion pass).
        converted: List[float] = []
        append = converted.append
        for value in column:
            if not is_numeric(value):
                return None
            append(float(value))
        return arrays.float_buffer(converted, self.backend)

    def sorted_index(self, name: str) -> Optional[Tuple[Sequence[float], Sequence[int]]]:
        """``(sorted values, rank positions)`` for a fully numeric column.

        ``bisect`` over the sorted values yields both an exact match count
        (selectivity) and, via the parallel rank array, the candidate rank
        positions of a range predicate.  ``None`` when the column is not
        fully numeric.
        """
        if name not in self._sorted_indexes:
            with self._lock:
                if name not in self._sorted_indexes:
                    floats = self.float_column(name)
                    if floats is None:
                        self._sorted_indexes[name] = None
                    else:
                        self._sorted_indexes[name] = arrays.stable_argsort(
                            floats, self.backend
                        )
        return self._sorted_indexes[name]

    def postings(self, name: str) -> Optional[Dict[object, List[int]]]:
        """Posting lists: distinct value → sorted rank positions holding it.

        Built for any column with hashable values (categorical drop-downs in
        practice); ``None`` when the column is unknown or a value is
        unhashable.
        """
        if name not in self._postings:
            with self._lock:
                if name not in self._postings:
                    column = self._raw.get(name)
                    if column is None:
                        self._postings[name] = None
                    else:
                        table: Dict[object, List[int]] = {}
                        try:
                            for rank, value in enumerate(column):
                                table.setdefault(value, []).append(rank)
                        except TypeError:  # unhashable value somewhere
                            self._postings[name] = None
                        else:
                            self._postings[name] = table
        return self._postings[name]

    # ------------------------------------------------------------------ #
    # Row materialization
    # ------------------------------------------------------------------ #
    def materialize(self, rank: int) -> Row:
        """The tuple at ``rank`` as a read-only :data:`Row`, built from the
        columns."""
        raw = self._raw
        return adopt_row({name: raw[name][rank] for name in self._order})

    def view(self, rank: int) -> RankView:
        """Read-only access to the tuple at ``rank`` without materializing it."""
        return RankView(self._raw, rank)  # type: ignore[arg-type]

    def materialize_many(self, ranks: Sequence[int]) -> List[Row]:
        """The read-only rows of ``ranks``, in the given order."""
        raw = self._raw
        order = self._order
        return [adopt_row({name: raw[name][rank] for name in order}) for rank in ranks]
