"""The seed's ``apply_delta``: rebuild the whole catalog from scratch.

What ``HiddenWebDatabase.apply_delta`` did before it spliced the served
columns — materialize every tuple, apply the change to a dictionary, call the
hidden ranking on all of them, sort, transpose and re-pack every column — kept
as the oracle the splice is differentially tested (and benchmarked) against.
Production and oracle share the catalog *constructor* and nothing else, so a
splice that misplaces a row, keeps a stale rank, or picks a different column
layout than a fresh build shows up as a difference.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.exceptions import QueryError
from repro.webdb.delta import CatalogDelta
from repro.webdb.indexes import ColumnarCatalog
from tests.reference.engine import NaiveScanDatabase

Row = Dict[str, object]


class RebuildDatabase(NaiveScanDatabase):
    """A naive-scan database whose every delta is a full rebuild."""

    def apply_delta(
        self,
        upserts: Iterable[Row] = (),
        deletes: Iterable[object] = (),
    ) -> CatalogDelta:
        upsert_rows = [dict(row) for row in upserts]
        delete_keys = list(deletes)
        for row in upsert_rows:
            self._schema.validate_row(row)
        key_column = self._schema.key
        with self._lock:
            current = self._columnar
            by_key: Dict[object, Row] = {
                row[key_column]: row
                for row in current.materialize_many(range(current.size))
            }
            touched: List[Row] = []
            for key in delete_keys:
                if key not in by_key:
                    raise QueryError(f"cannot delete unknown tuple key {key!r}")
                touched.append(by_key.pop(key))
            for row in upsert_rows:
                key = row[key_column]
                old = by_key.get(key)
                if old is not None:
                    touched.append(old)
                touched.append(row)
                by_key[key] = row
            if not touched:
                return CatalogDelta(namespace=self.name)
            sort_key = self._system_ranking.sort_key(key_column)
            ranked = sorted(by_key.values(), key=sort_key)
            self._publish(
                ColumnarCatalog(
                    ranked, current.column_order, key_column, backend=current.backend
                )
            )
            return CatalogDelta.from_rows(
                self.name,
                key_column,
                touched,
                upserts=len(upsert_rows),
                deletes=len(delete_keys),
            )
