"""The seed execution engine: a row-at-a-time scan in hidden-rank order."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple, Type

from repro.dataset.schema import Schema
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.engine import ExecutionEngine
from repro.webdb.indexes import ColumnarCatalog
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import SystemRankingFunction

Row = Dict[str, object]


class NaiveScanEngine(ExecutionEngine):
    """The seed implementation, verbatim: per-row ``query.matches`` with
    early termination at ``k + 1`` matches and a ``dict(row)`` copy per hit."""

    name = "naive"

    def __init__(self, ranked_rows: Sequence[Mapping[str, object]]) -> None:
        self._ranked_rows = ranked_rows

    def execute(self, query: SearchQuery, k: int) -> Tuple[List[Row], bool]:
        matches: List[Row] = []
        overflow = False
        for row in self._ranked_rows:
            if not query.matches(row):
                continue
            if len(matches) < k:
                matches.append(dict(row))
            else:
                overflow = True
                break
        return matches, overflow


class NaiveScanDatabase(HiddenWebDatabase):
    """A :class:`HiddenWebDatabase` answering through :class:`NaiveScanEngine`
    (at construction and after every ``apply_delta``)."""

    def _make_engine(self, columnar: ColumnarCatalog) -> ExecutionEngine:
        return NaiveScanEngine(columnar.rows())


def database_on_layout(
    cls: Type[HiddenWebDatabase],
    columns: Mapping[str, Sequence[object]],
    schema: Schema,
    system_ranking: SystemRankingFunction,
    backend: str,
    **kwargs,
) -> HiddenWebDatabase:
    """A ``cls`` database over rank-ordered ``columns`` (see
    ``stream_sorted_columns``) stored in the ``backend`` layout — the
    storage layout is an argument of :class:`ColumnarCatalog` only, so the
    layout differentials build the catalog themselves.  ``kwargs`` go to
    ``from_columnar`` (``system_k``, ``latency``, ``name``, ...)."""
    catalog = ColumnarCatalog.from_columns(
        columns, list(columns), schema.key, backend=backend
    )
    return cls.from_columnar(catalog, schema, system_ranking, **kwargs)
