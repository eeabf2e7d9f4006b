"""A lightweight columnar table.

The original QR2 implementation keeps query results in pandas data frames and
post-processes them with pandasql.  pandas is not available in this
environment, so :class:`ColumnTable` provides the small subset of behaviour
the system actually needs: column-wise storage that the catalog generators
produce and the simulated databases load, row access as dictionaries, and a
fixed-width text rendering.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SchemaError


class ColumnTable:
    """Column-major table with dictionary rows at the API boundary.

    The table is immutable: columns and rows are handed out as copies, so a
    caller never aliases the catalog it was built from.
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
        cls, rows: Iterable[Mapping[str, object]], columns: Optional[Sequence[str]] = None
    ) -> "ColumnTable":
        """Build a table from an iterable of row dictionaries.

        When ``columns`` is omitted the column order of the first row is used
        (zero rows then make no column, which a table refuses).  Missing
        values raise :class:`SchemaError` — the simulated databases always
        produce complete rows, so a hole indicates a bug upstream.
        """
        return cls(transpose(rows, columns))

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

    def __iter__(self) -> Iterator[Dict[str, object]]:
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

    def row(self, index: int) -> Dict[str, object]:
        """Return row ``index`` as a dictionary."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"row index {index} out of range (0..{self._length - 1})")
        return {name: values[index] for name, values in self._columns.items()}

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """Iterate over rows as dictionaries."""
        for index in range(self._length):
            yield self.row(index)

    def iter_columns(self) -> Iterator[Dict[str, List[object]]]:
        """The table as one batch of its columns (shared, do not mutate),
        the form :func:`~repro.webdb.database.stream_sorted_columns` reads."""
        yield dict(self._columns)

    def to_rows(self) -> List[Dict[str, object]]:
        """Materialize all rows as a list of dictionaries."""
        return list(self.iter_rows())

    # ------------------------------------------------------------------ #
    # Pretty printing (used by the examples and the statistics panel)
    # ------------------------------------------------------------------ #
    def to_text(self, max_rows: int = 20) -> str:
        """Render the table as a fixed-width text grid."""
        return format_grid(
            self.columns, self.to_rows()[:max_rows], hidden_rows=len(self) - max_rows
        )


def transpose(
    rows: Iterable[Mapping[str, object]], names: Optional[Sequence[str]] = None
) -> Dict[str, Tuple[object, ...]]:
    """The columns ``names`` (by default the first row's, in its order) of
    ``rows``, read in one pass with no per-value append; a row missing one of
    them raises :class:`SchemaError`.  No row and no ``names`` give ``{}``."""
    iterator = iter(rows)
    first = next(iterator, None)
    if first is None:
        return {name: () for name in names or ()}
    names = list(first) if names is None else names
    try:
        records = [tuple(map(row.__getitem__, names)) for row in chain((first,), iterator)]
    except KeyError as error:
        raise SchemaError(f"row is missing column {error.args[0]!r}") from None
    return dict(zip(names, zip(*records)))


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
