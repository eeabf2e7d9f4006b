"""The row-wise catalog load that the column-wise one replaced.

What ``stream_sorted_columns`` did before it read columns: iterate the
catalog as row dictionaries (a ``ColumnTable`` row by row, a
``SQLiteTupleStore`` through its cursor's row batches), validate each row
with the per-value domain test, build each sort key from the row, append
every value to its column, and permute the columns into hidden-rank order.  Kept as the
oracle the column-wise load and its column-wise validation are
differentially tested against; it shares no code with them but the
ranking's ``sort_key``.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Mapping

from repro.dataset.schema import Schema
from repro.exceptions import SchemaError
from repro.sqlstore.store import SQLiteTupleStore
from repro.webdb.ranking import SystemRankingFunction


def reference_validate_row(schema: Schema, row: Mapping[str, object]) -> None:
    """The per-row rule: the key and every attribute present, a numeric
    value an ``int``/``float`` (never a ``bool``, which no range predicate
    matches) inside the closed domain once ``float``-ed, a categorical value
    among the categories."""
    if schema.key not in row:
        raise SchemaError(f"row is missing key column {schema.key!r}")
    for attribute in schema.attributes:
        if attribute.name not in row:
            raise SchemaError(f"row is missing attribute {attribute.name!r}")
        value = row[attribute.name]
        if attribute.is_numeric:
            inside = isinstance(value, (int, float)) and not isinstance(value, bool) and (
                attribute.lower <= float(value) <= attribute.upper  # type: ignore[operator]
            )
        else:
            inside = value in attribute.categories
        if not inside:
            raise SchemaError(
                f"value {value!r} outside domain of attribute {attribute.name!r}"
            )


def reference_sorted_columns(
    rows: Iterable[Mapping[str, object]],
    schema: Schema,
    system_ranking: SystemRankingFunction,
    validate: bool = True,
) -> Dict[str, List[object]]:
    """Read rows once into hidden-rank-ordered columns, one row at a time."""
    if isinstance(rows, SQLiteTupleStore):
        rows = chain.from_iterable(rows.iter_rows())
    columns: Dict[str, List[object]] = {}
    sort_keys: List[object] = []
    key_of = system_ranking.sort_key(schema.key)
    for row in rows:
        if validate:
            reference_validate_row(schema, row)
        if not columns:
            columns = {name: [] for name in row}
        sort_keys.append(key_of(row))
        for name, column in columns.items():
            column.append(row[name])
    if not columns:
        return {name: [] for name in schema.columns()}
    order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
    for name, column in columns.items():
        columns[name] = [column[i] for i in order]
    return columns
