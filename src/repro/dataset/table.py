"""A lightweight columnar table.

The original QR2 implementation keeps query results in pandas data frames and
post-processes them with pandasql.  pandas is not available in this
environment, so :class:`ColumnTable` provides the small subset of behaviour
the system actually needs: column-wise storage, row access as dictionaries,
filtering, sorting, projection, and conversion helpers used by the SQLite
bridge in :mod:`repro.sqlstore.rowsql`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import SchemaError

Row = Dict[str, object]


class ColumnTable:
    """Column-major table with dictionary rows at the API boundary.

    The table is intentionally immutable-ish: mutating operations return new
    tables, which keeps result pages, session caches, and index snapshots from
    aliasing each other (a recurring source of bugs when the service is
    concurrent).
    """

    def __init__(self, columns: Mapping[str, Sequence[object]]) -> None:
        if not columns:
            raise SchemaError("a table requires at least one column")
        lengths = {name: len(values) for name, values in columns.items()}
        unique_lengths = set(lengths.values())
        if len(unique_lengths) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        self._columns: Dict[str, List[object]] = {
            name: list(values) for name, values in columns.items()
        }
        self._length = unique_lengths.pop() if unique_lengths else 0

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls, rows: Iterable[Row], columns: Optional[Sequence[str]] = None
    ) -> "ColumnTable":
        """Build a table from an iterable of row dictionaries.

        When ``columns`` is omitted the column order of the first row is used.
        Missing values raise :class:`SchemaError` — the simulated databases
        always produce complete rows, so a hole indicates a bug upstream.
        """
        materialized = list(rows)
        if columns is None:
            if not materialized:
                raise SchemaError(
                    "cannot infer columns from zero rows; pass columns explicitly"
                )
            columns = list(materialized[0].keys())
        data: Dict[str, List[object]] = {name: [] for name in columns}
        for row in materialized:
            for name in columns:
                if name not in row:
                    raise SchemaError(f"row is missing column {name!r}")
                data[name].append(row[name])
        return cls(data)

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "ColumnTable":
        """Return a zero-row table with the given columns."""
        return cls({name: [] for name in columns})

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> List[str]:
        """Column names in insertion order."""
        return list(self._columns.keys())

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Row]:
        return self.iter_rows()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnTable):
            return NotImplemented
        return self.columns == other.columns and self.to_rows() == other.to_rows()

    def __repr__(self) -> str:
        return f"ColumnTable(columns={self.columns}, rows={len(self)})"

    def column(self, name: str) -> List[object]:
        """Return a copy of column ``name``."""
        if name not in self._columns:
            raise SchemaError(f"unknown column {name!r}")
        return list(self._columns[name])

    def row(self, index: int) -> Row:
        """Return row ``index`` as a dictionary."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"row index {index} out of range (0..{self._length - 1})")
        return {name: values[index] for name, values in self._columns.items()}

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over rows as dictionaries."""
        for index in range(self._length):
            yield self.row(index)

    def to_rows(self) -> List[Row]:
        """Materialize all rows as a list of dictionaries."""
        return list(self.iter_rows())

    # ------------------------------------------------------------------ #
    # Relational-ish operations
    # ------------------------------------------------------------------ #
    def select(self, columns: Sequence[str]) -> "ColumnTable":
        """Project onto ``columns`` (in the given order)."""
        missing = [name for name in columns if name not in self._columns]
        if missing:
            raise SchemaError(f"unknown columns {missing}")
        return ColumnTable({name: self._columns[name] for name in columns})

    def _take(self, indices: Sequence[int]) -> "ColumnTable":
        """New table holding the rows at ``indices``, by direct column
        slicing — no round trip through row dictionaries."""
        return ColumnTable(
            {name: [values[i] for i in indices] for name, values in self._columns.items()}
        )

    def filter(self, predicate: Callable[[Row], bool]) -> "ColumnTable":
        """Keep rows for which ``predicate`` returns True."""
        kept = [index for index, row in enumerate(self.iter_rows()) if predicate(row)]
        return self._take(kept)

    def sort_by(
        self,
        key: Callable[[Row], object],
        reverse: bool = False,
    ) -> "ColumnTable":
        """Return a new table sorted by ``key`` (stable sort)."""
        order = sorted(
            range(self._length),
            key=lambda index: key(self.row(index)),
            reverse=reverse,
        )
        return self._take(order)

    def head(self, count: int) -> "ColumnTable":
        """Return the first ``count`` rows."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._take(range(min(count, self._length)))

    def append_rows(self, rows: Iterable[Row]) -> "ColumnTable":
        """Return a new table with ``rows`` appended."""
        combined = self.to_rows() + list(rows)
        if not combined:
            return ColumnTable.empty(self.columns)
        return ColumnTable.from_rows(combined, columns=self.columns)

    def distinct(self, columns: Optional[Sequence[str]] = None) -> "ColumnTable":
        """Drop duplicate rows (duplicates judged on ``columns`` or all)."""
        judge_columns = list(columns) if columns is not None else self.columns
        judged = [self._columns[name] for name in judge_columns]
        seen: set = set()
        kept: List[int] = []
        for index in range(self._length):
            signature = tuple(values[index] for values in judged)
            if signature in seen:
                continue
            seen.add(signature)
            kept.append(index)
        return self._take(kept)

    def rename(self, mapping: Mapping[str, str]) -> "ColumnTable":
        """Rename columns according to ``mapping``."""
        unknown = [name for name in mapping if name not in self._columns]
        if unknown:
            raise SchemaError(f"unknown columns {unknown}")
        return ColumnTable(
            {mapping.get(name, name): values for name, values in self._columns.items()}
        )

    def with_column(
        self, name: str, values_or_fn: object
    ) -> "ColumnTable":
        """Return a new table with an added or replaced column.

        ``values_or_fn`` is either a sequence of length ``len(self)`` or a
        callable applied to each row.
        """
        if callable(values_or_fn):
            values: List[object] = [values_or_fn(row) for row in self.iter_rows()]
        else:
            values = list(values_or_fn)  # type: ignore[arg-type]
            if len(values) != self._length:
                raise SchemaError(
                    f"column {name!r} has {len(values)} values for {self._length} rows"
                )
        data = {key: list(column) for key, column in self._columns.items()}
        data[name] = values
        return ColumnTable(data)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def min(self, column: str) -> object:
        """Minimum value of ``column`` (raises on empty tables)."""
        values = self.column(column)
        if not values:
            raise ValueError(f"min() on empty column {column!r}")
        return min(values)  # type: ignore[type-var]

    def max(self, column: str) -> object:
        """Maximum value of ``column`` (raises on empty tables)."""
        values = self.column(column)
        if not values:
            raise ValueError(f"max() on empty column {column!r}")
        return max(values)  # type: ignore[type-var]

    def mean(self, column: str) -> float:
        """Arithmetic mean of a numeric column."""
        values = [float(v) for v in self.column(column)]  # type: ignore[arg-type]
        if not values:
            raise ValueError(f"mean() on empty column {column!r}")
        return sum(values) / len(values)

    def value_counts(self, column: str) -> Dict[object, int]:
        """Histogram of the values in ``column``."""
        counts: Dict[object, int] = {}
        for value in self.column(column):
            counts[value] = counts.get(value, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Pretty printing (used by the examples and the statistics panel)
    # ------------------------------------------------------------------ #
    def to_text(self, max_rows: int = 20, float_format: str = "{:.2f}") -> str:
        """Render the table as a fixed-width text grid."""
        return format_grid(
            self.columns,
            self.to_rows()[:max_rows],
            hidden_rows=len(self) - max_rows,
            float_format=float_format,
        )


def format_grid(
    columns: Sequence[str],
    rows: Sequence[Mapping[str, object]],
    hidden_rows: int = 0,
    float_format: str = "{:.2f}",
) -> str:
    """Fixed-width text grid of ``rows`` under a header of ``columns``, with a
    trailer line when ``hidden_rows`` more are not shown.  Works on the row
    dictionaries a result page already holds — no table is built."""
    headers = [str(name) for name in columns]
    grid = [
        [
            float_format.format(value) if isinstance(value, float) else str(value)
            for value in map(row.__getitem__, columns)
        ]
        for row in rows
    ]
    widths = [max(map(len, cells)) for cells in zip(headers, *grid)]
    lines = [
        "  ".join(map(str.ljust, headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    lines += ["  ".join(map(str.ljust, cells, widths)) for cells in grid]
    if hidden_rows > 0:
        lines.append(f"... ({hidden_rows} more rows)")
    return "\n".join(lines)
