"""The one way a source is built.

To QR2 a web database is three facts — a schema, a ``system-k`` and a search
endpoint.  :func:`build_source` turns a catalog plus a
:class:`~repro.config.DatabaseConfig` into that endpoint through one
pipeline, whatever the input kind and topology::

    columns (or rows, transposed once) -> hidden-rank-ordered columns
         -> position buckets -> ColumnarCatalog.from_columns
         -> HiddenWebDatabase -> SourceStack
         (-> FederatedInterface when the catalog is sharded)

Every per-shard seed is a pure function of the shard index (latency
``seed + i``, fault plan ``seed + i``), so a run replays exactly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence

from repro.dataset.schema import Schema
from repro.exceptions import QueryError
from repro.sqlstore.store import SQLiteTupleStore
from repro.webdb.database import HiddenWebDatabase, stream_sorted_columns
from repro.webdb.federation import FederatedInterface, partition_positions
from repro.webdb.indexes import ColumnarCatalog
from repro.webdb.interface import TopKInterface
from repro.webdb.latency import LatencyModel
from repro.webdb.ranking import SystemRankingFunction
from repro.webdb.stack import SourceStack

if TYPE_CHECKING:  # pragma: no cover - repro.config imports repro.webdb
    from repro.config import DatabaseConfig


def build_source(
    rows: Iterable[Mapping[str, object]],
    schema: Schema,
    system_ranking: SystemRankingFunction,
    config: "DatabaseConfig",
    *,
    name: str,
) -> TopKInterface:
    """Build the source ``config`` describes over the catalog ``rows``.

    ``rows`` is a :class:`~repro.dataset.table.ColumnTable` or a
    :class:`~repro.sqlstore.store.SQLiteTupleStore`, read column by column,
    or any iterable of row dictionaries, transposed once; everything but a
    store (which validated on upsert) is validated against ``schema``
    column by column.  ``config.shards == 1``
    returns a :class:`~repro.webdb.stack.SourceStack` named ``name``; any
    other count partitions the catalog (``config.shard_by``) and returns a
    :class:`~repro.webdb.federation.FederatedInterface` over shards named
    ``"{name}#{i}"``.  Every guard runs the default retry / breaker policy
    of :class:`~repro.webdb.stack.SourceStack`.
    """
    columns = stream_sorted_columns(
        rows, schema, system_ranking, validate=not isinstance(rows, SQLiteTupleStore)
    )

    def database(index: int, shard_name: str, shard_columns: Dict[str, List[object]]):
        return HiddenWebDatabase.from_columnar(
            ColumnarCatalog.from_columns(shard_columns, list(shard_columns), schema.key),
            schema,
            system_ranking,
            system_k=config.system_k,
            latency=LatencyModel(
                mean_seconds=config.latency_seconds,
                jitter=config.latency_jitter,
                sleep=config.latency_sleep,
                seed=config.seed + index,
            ),
            name=shard_name,
        )

    if config.shards == 1:
        return SourceStack(database(0, name, columns), fault_plan=config.fault_plan)
    keys = columns[schema.key]
    if len(set(keys)) != len(keys):
        # Each shard checks only its own keys; copies of one key dealt to
        # different shards would otherwise slip through.
        raise QueryError("catalog contains duplicate tuple keys")
    buckets, partitions = partition_positions(
        columns, schema, config.shards, config.shard_by
    )
    shards = [
        database(index, f"{name}#{index}", _take(columns, bucket))
        for index, bucket in enumerate(buckets)
    ]
    del columns
    plan = config.fault_plan
    return FederatedInterface(
        shards,
        system_ranking,
        name=name,
        system_k=config.system_k,
        partitions=partitions,
        shard_by=config.shard_by,
        # Shards draw independent fault streams from the one plan, yet each
        # stream stays replayable.
        fault_plans=None
        if plan is None
        else [replace(plan, seed=plan.seed + index) for index in range(len(shards))],
    )


def _take(
    columns: Mapping[str, Sequence[object]], positions: Sequence[int]
) -> Dict[str, List[object]]:
    return {
        name: [column[position] for position in positions]
        for name, column in columns.items()
    }
