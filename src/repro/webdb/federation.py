"""Sharded, federated hidden-web sources.

Real deployments of the paper's scenario rarely sit on one monolithic
database: a large catalog is horizontally partitioned across shards, each
exposing its own top-k interface (possibly with different engines, ``k``
values, and latencies).  This module supplies the two pieces that let the
rest of the library stay shard-agnostic:

* :class:`ShardedCatalog` — partitions one catalog into N disjoint shard
  catalogs, either **by hidden rank** (round-robin in hidden-rank order, so
  every shard sees the same score distribution) or **by attribute range**
  (contiguous quantile slices of one numeric attribute, which enables shard
  pruning for range-filtered queries);
* :class:`FederatedInterface` — presents the shard databases as a single
  :class:`~repro.webdb.interface.TopKInterface`.  A ``search`` **scatters**
  the query to the non-pruned shards, **gathers** their top-k pages, and
  merges them by the (shared) hidden system ranking into one page that is
  *byte-identical* to what the unsharded reference database would return.

Correctness of the scatter-gather merge:

* every shard's ``k`` is required to be ≥ the federated ``k``, so the global
  top-k of any query is contained in the union of the per-shard top-k pages;
* shard catalogs are disjoint by construction and the merge comparator is the
  same ``(score, str(key))`` used by :class:`HiddenWebDatabase`, so the merged
  order equals the unsharded hidden-rank order exactly;
* the outcome trichotomy is preserved: any shard overflow implies the global
  query overflows (that shard alone has unreturned matches); otherwise every
  matching tuple was gathered, and the total count classifies the result.

Every shard is issued through its own
:class:`~repro.webdb.stack.SourceStack` (fault injector, guard, statistics),
built once when the federation is constructed.  The facade can additionally
cache per shard: given a :class:`~repro.webdb.cache.QueryResultCache`, each
shard's answers are stored under that shard's own namespace, so invalidating
one shard never retires a sibling shard's entries.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.sqlstore.store import SQLiteTupleStore

from repro.dataset.schema import Schema
from repro.dataset.table import ColumnTable
from repro.exceptions import (
    DeadlineExceededError,
    QueryError,
    SourceUnavailableError,
)
from repro.webdb.cache import FetchStatus, QueryResultCache, default_namespace
from repro.webdb.database import HiddenWebDatabase, stream_sorted_columns
from repro.webdb.delta import CatalogDelta, merge_shard_deltas
from repro.webdb.faults import FaultInjector, FaultPlan
from repro.webdb.indexes import ColumnarCatalog
from repro.webdb.interface import Outcome, SearchResult, TopKInterface
from repro.webdb.latency import LatencyModel
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import SystemRankingFunction
from repro.webdb.resilience import (
    Deadline,
    ResilienceConfig,
    ResilienceStatistics,
    guards_snapshot,
)
from repro.webdb.stack import SourceStack

Row = Dict[str, object]


@dataclass(frozen=True)
class ShardSpec:
    """Optional per-shard overrides (heterogeneous federations).

    ``None`` fields fall back to the federation-wide defaults.  ``system_k``
    may only *raise* a shard's page size above the federated ``k`` — the
    merge is provably complete only when every shard returns at least the
    federated ``k`` tuples per query.  ``fault_plan`` gives the shard its own
    deterministic fault schedule (overriding any federation-wide plan).
    """

    system_k: Optional[int] = None
    engine: Optional[str] = None
    latency: Optional[LatencyModel] = None
    fault_plan: Optional[FaultPlan] = None


def _resolve_shard_spec(
    spec: Optional[ShardSpec],
    index: int,
    *,
    system_k: int,
    engine: str,
    latency_mean: float,
    latency_jitter: float,
    latency_seed: int,
    latency_sleep: bool,
) -> Tuple[int, str, LatencyModel]:
    """Resolve one shard's effective ``(k, engine, latency)`` from its
    optional :class:`ShardSpec` and the federation-wide defaults."""
    shard_k = spec.system_k if spec and spec.system_k is not None else system_k
    if shard_k < system_k:
        raise QueryError(
            f"shard {index} has system_k={shard_k} below the federated "
            f"k={system_k}; the merged top-k would be incomplete"
        )
    shard_engine = spec.engine if spec and spec.engine is not None else engine
    if spec and spec.latency is not None:
        latency = spec.latency
    else:
        latency = LatencyModel(
            mean_seconds=latency_mean,
            jitter=latency_jitter,
            sleep=latency_sleep,
            seed=latency_seed + index,
        )
    return shard_k, shard_engine, latency


def shard_fault_plans(
    count: int,
    fault_plan: Optional[FaultPlan],
    specs: Optional[Sequence[Optional[ShardSpec]]] = None,
) -> List[Optional[FaultPlan]]:
    """Each shard's fault schedule: its :class:`ShardSpec`'s own plan, else
    the federation-wide plan with a shard-specific seed offset — shards draw
    independent fault streams from one plan, yet each stream stays
    replayable — else ``None``."""
    plans: List[Optional[FaultPlan]] = []
    for index in range(count):
        spec = specs[index] if specs is not None else None
        if spec is not None and spec.fault_plan is not None:
            plans.append(spec.fault_plan)
        elif fault_plan is not None:
            plans.append(dataclass_replace(fault_plan, seed=fault_plan.seed + index))
        else:
            plans.append(None)
    return plans


class ShardedCatalog:
    """One catalog partitioned into N disjoint shard catalogs.

    Instances are produced by :meth:`partition`; ``tables[i]`` is shard *i*'s
    catalog and — for attribute partitioning — ``partitions[i]`` is the range
    of the partition attribute that shard *i* owns (used for shard pruning).
    """

    def __init__(
        self,
        tables: Sequence[ColumnTable],
        schema: Schema,
        shard_by: str,
        partitions: Optional[Sequence[Optional[RangePredicate]]] = None,
    ) -> None:
        if not tables:
            raise QueryError("a sharded catalog needs at least one shard")
        if partitions is not None and len(partitions) != len(tables):
            raise QueryError("partitions must align with shard tables")
        self.tables: List[ColumnTable] = list(tables)
        self.schema = schema
        self.shard_by = shard_by
        self.partitions: Optional[List[Optional[RangePredicate]]] = (
            list(partitions) if partitions is not None else None
        )

    @property
    def shard_count(self) -> int:
        """Number of shards the catalog was split into."""
        return len(self.tables)

    # ------------------------------------------------------------------ #
    @staticmethod
    def partition(
        catalog: ColumnTable,
        schema: Schema,
        system_ranking: SystemRankingFunction,
        shards: int,
        by: str = "rank",
    ) -> "ShardedCatalog":
        """Partition ``catalog`` into ``shards`` disjoint shard catalogs.

        ``by="rank"`` deals tuples round-robin in hidden-rank order;
        any other value names a numeric attribute and splits the catalog
        into contiguous quantile ranges of that attribute.
        """
        if shards <= 0:
            raise QueryError("shard count must be positive")
        if by == "rank":
            return ShardedCatalog._by_rank(catalog, schema, system_ranking, shards)
        return ShardedCatalog._by_attribute(catalog, schema, by, shards)

    @staticmethod
    def _by_rank(
        catalog: ColumnTable,
        schema: Schema,
        system_ranking: SystemRankingFunction,
        shards: int,
    ) -> "ShardedCatalog":
        rows = sorted(catalog.to_rows(), key=system_ranking.sort_key(schema.key))
        columns = catalog.columns
        buckets: List[List[Row]] = [[] for _ in range(shards)]
        for position, row in enumerate(rows):
            buckets[position % shards].append(row)
        tables = [
            ColumnTable.from_rows(bucket, columns=columns)
            for bucket in buckets
            if bucket
        ]
        return ShardedCatalog(tables, schema, shard_by="rank")

    @staticmethod
    def _by_attribute(
        catalog: ColumnTable,
        schema: Schema,
        attribute: str,
        shards: int,
    ) -> "ShardedCatalog":
        schema.require_numeric(attribute)
        rows = catalog.to_rows()
        values = sorted(float(row[attribute]) for row in rows)  # type: ignore[arg-type]
        if not values:
            raise QueryError("cannot partition an empty catalog")
        # Quantile boundaries, deduplicated: a heavily skewed attribute can
        # yield fewer distinct cut points than requested shards, in which
        # case the federation simply has fewer (non-empty) shards.
        cuts: List[float] = []
        for index in range(1, shards):
            cut = values[(index * len(values)) // shards]
            if not cuts or cut > cuts[-1]:
                cuts.append(cut)
        # Shard i owns [cuts[i-1], cuts[i]) with open extremes at ±inf, so
        # every possible value belongs to exactly one shard.
        bounds: List[Tuple[float, float]] = []
        lower = float("-inf")
        for cut in cuts:
            bounds.append((lower, cut))
            lower = cut
        bounds.append((lower, float("inf")))
        columns = catalog.columns
        buckets: List[List[Row]] = [[] for _ in bounds]
        for row in rows:
            value = float(row[attribute])  # type: ignore[arg-type]
            for index, (low, high) in enumerate(bounds):
                if low <= value < high or (index == len(bounds) - 1 and value >= low):
                    buckets[index].append(row)
                    break
        tables: List[ColumnTable] = []
        partitions: List[Optional[RangePredicate]] = []
        for bucket, (low, high) in zip(buckets, bounds):
            if not bucket:
                continue
            tables.append(ColumnTable.from_rows(bucket, columns=columns))
            is_last = high == float("inf")
            partitions.append(
                RangePredicate(
                    attribute,
                    lower=low,
                    upper=high,
                    include_lower=True,
                    include_upper=is_last,
                )
            )
        return ShardedCatalog(tables, schema, shard_by=attribute, partitions=partitions)

    # ------------------------------------------------------------------ #
    def build_databases(
        self,
        system_ranking: SystemRankingFunction,
        name: str = "federation",
        system_k: int = 20,
        latency_mean: float = 0.0,
        latency_jitter: float = 0.25,
        latency_seed: int = 11,
        latency_sleep: bool = False,
        engine: str = "indexed",
        specs: Optional[Sequence[Optional[ShardSpec]]] = None,
        columnar_backend: str = "buffer",
    ) -> List[HiddenWebDatabase]:
        """Materialize one :class:`HiddenWebDatabase` per shard.

        Shards are named ``"{name}#{i}"`` so that
        :func:`~repro.webdb.cache.default_namespace` automatically gives each
        shard its own cache namespace.  Every shard gets an independent
        latency model (same distribution, shard-specific seed) unless a
        :class:`ShardSpec` overrides it.
        """
        if specs is not None and len(specs) != self.shard_count:
            raise QueryError("specs must align with shard tables")
        databases: List[HiddenWebDatabase] = []
        for index, table in enumerate(self.tables):
            spec = specs[index] if specs is not None else None
            shard_k, shard_engine, latency = _resolve_shard_spec(
                spec,
                index,
                system_k=system_k,
                engine=engine,
                latency_mean=latency_mean,
                latency_jitter=latency_jitter,
                latency_seed=latency_seed,
                latency_sleep=latency_sleep,
            )
            databases.append(
                HiddenWebDatabase(
                    catalog=table,
                    schema=self.schema,
                    system_ranking=system_ranking,
                    system_k=shard_k,
                    latency=latency,
                    name=f"{name}#{index}",
                    engine=shard_engine,
                    columnar_backend=columnar_backend,
                )
            )
        return databases


class FederatedInterface(TopKInterface):
    """N shard databases presented as one top-k source.

    ``search`` scatters to every shard the query cannot be pruned from,
    gathers the per-shard pages, and merges them by the shared hidden system
    ranking — reproducing the unsharded reference database's pages byte for
    byte (see the module docstring for the argument).

    Each shard sits behind its own :class:`~repro.webdb.stack.SourceStack`,
    built here from ``fault_plans[i]`` and ``resilience``; the stacks' guards
    share one :class:`~repro.webdb.resilience.ResilienceStatistics`.  With a
    ``result_cache``, shard answers are cached under per-shard namespaces:
    :meth:`invalidate_shard` retires exactly one shard's entries while
    sibling shards' cached answers keep serving.  Guards and cache are fixed
    at construction — nothing re-binds them later.
    """

    def __init__(
        self,
        shards: Sequence[TopKInterface],
        system_ranking: SystemRankingFunction,
        name: str = "federation",
        system_k: Optional[int] = None,
        partitions: Optional[Sequence[Optional[RangePredicate]]] = None,
        shard_by: str = "rank",
        result_cache: Optional[QueryResultCache] = None,
        fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
        resilience: Optional[ResilienceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not shards:
            raise QueryError("a federation needs at least one shard")
        if partitions is not None and len(partitions) != len(shards):
            raise QueryError("partitions must align with shards")
        if fault_plans is not None and len(fault_plans) != len(shards):
            raise QueryError("fault_plans must align with shards")
        self._shards: List[TopKInterface] = list(shards)
        self._schema = shards[0].schema
        for shard in self._shards[1:]:
            if shard.schema.key != self._schema.key:
                raise QueryError("shards must share one key column")
        self._system_ranking = system_ranking
        self.name = name
        self._system_k = system_k if system_k is not None else min(
            shard.system_k for shard in self._shards
        )
        if self._system_k <= 0:
            raise QueryError("system_k must be positive")
        for index, shard in enumerate(self._shards):
            if shard.system_k < self._system_k:
                raise QueryError(
                    f"shard {index} has system_k={shard.system_k} below the "
                    f"federated k={self._system_k}"
                )
        self._namespaces = [default_namespace(shard) for shard in self._shards]
        if len(set(self._namespaces)) != len(self._namespaces):
            raise QueryError(f"shard names must be unique: {self._namespaces}")
        if self.name in self._namespaces:
            raise QueryError(f"federation name {self.name!r} collides with a shard")
        self._resilience = resilience or ResilienceConfig()
        self._resilience_stats = ResilienceStatistics()
        self._stacks = [
            SourceStack(
                shard,
                fault_plan=fault_plans[index] if fault_plans is not None else None,
                resilience=self._resilience,
                resilience_statistics=self._resilience_stats,
                clock=clock,
                name=self._namespaces[index],
            )
            for index, shard in enumerate(self._shards)
        ]
        self._partitions = list(partitions) if partitions is not None else None
        self._shard_by = shard_by
        self._cache = result_cache
        self._lock = threading.Lock()
        self._scatter_count = 0
        self._pruned_shard_queries = 0
        self._fanout_total = 0
        self._fanout_max = 0
        self._merge_rows_total = 0
        self._merge_depth_max = 0
        self._shard_cache_hits = [0] * len(self._shards)

    # ------------------------------------------------------------------ #
    # TopKInterface
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def system_k(self) -> int:
        return self._system_k

    @property
    def supports_batched_search(self) -> bool:
        """A scatter already fans out internally; batching is advertised only
        when every shard could amortize it (no sleeping latency model, no
        fault being drawn)."""
        return all(stack.supports_batched_search for stack in self._stacks)

    def search(self, query: SearchQuery) -> SearchResult:
        """Scatter ``query`` to the live shards and gather one merged page.

        A shard whose retries are exhausted (or whose breaker is open) does
        not fail the scatter: its stale cached answer is replayed when
        permitted, otherwise the shard is recorded in ``missing_shards`` and
        the merged result is returned *degraded* — forced to ``OVERFLOW`` so
        it never claims to cover the query, and never stored in the result
        cache.  Only when **no** shard contributes anything does the scatter
        raise.
        """
        query.validate(self._schema)
        targets = self._targets_for(query)
        deadline = Deadline(self._resilience.deadline_seconds)
        results: List[SearchResult] = []
        missing: List[str] = []
        stale_answers = 0
        last_error: Optional[SourceUnavailableError] = None
        deadline_hit = False
        for index in targets:
            if deadline.expired:
                # Out of time: the remaining shards go unqueried and are
                # reported missing instead of being paid for.
                deadline_hit = True
                missing.append(self._namespaces[index])
                continue
            try:
                result = self._shard_search(index, query, deadline)
            except SourceUnavailableError as error:
                last_error = error
                stale = self._stale_shard_answer(index, query)
                if stale is not None:
                    stale_answers += 1
                    results.append(stale)
                else:
                    missing.append(self._namespaces[index])
                continue
            deadline.charge(result.elapsed_seconds)
            results.append(result)
        if targets and not results:
            # Nothing answered, live or stale: the whole federation is down
            # (or the deadline left no room for even one shard).
            if deadline_hit and last_error is None:
                raise DeadlineExceededError(
                    f"{self.name}: deadline exhausted before any shard answered",
                    elapsed_seconds=deadline.spent,
                )
            raise SourceUnavailableError(
                f"{self.name}: no shard reachable ({', '.join(missing)})",
                source=self.name,
                retry_after_seconds=self._shortest_retry_hint(),
            )
        degraded = bool(missing) or stale_answers > 0
        merged: List[Row] = [row for result in results for row in result.rows]
        merged.sort(key=self._system_ranking.sort_key(self._schema.key))
        overflow = any(result.is_overflow for result in results)
        total = len(merged)
        if degraded or overflow or total > self._system_k:
            # A degraded merge can never prove coverage: unseen shards may
            # hold matches, so the trichotomy is pinned at OVERFLOW.
            outcome = Outcome.OVERFLOW
        elif total == 0:
            outcome = Outcome.UNDERFLOW
        else:
            outcome = Outcome.VALID
        elapsed = max((result.elapsed_seconds for result in results), default=0.0)
        with self._lock:
            self._scatter_count += 1
            self._pruned_shard_queries += len(self._shards) - len(targets)
            self._fanout_total += len(targets)
            self._fanout_max = max(self._fanout_max, len(targets))
            self._merge_rows_total += total
            self._merge_depth_max = max(self._merge_depth_max, total)
        if degraded:
            self._resilience_stats.record("degraded_scatters")
        return SearchResult(
            query=query,
            rows=tuple(merged[: self._system_k]),
            outcome=outcome,
            system_k=self._system_k,
            elapsed_seconds=elapsed,
            degraded=degraded,
            missing_shards=tuple(missing),
            stale=stale_answers > 0,
        )

    def queries_issued(self) -> int:
        """Scatters served by the federation (each is one logical query;
        :meth:`shard_queries_issued` counts the underlying shard hits)."""
        with self._lock:
            return self._scatter_count

    # ------------------------------------------------------------------ #
    # Shard plumbing
    # ------------------------------------------------------------------ #
    def _targets_for(self, query: SearchQuery) -> List[int]:
        """Indexes of shards that can hold matches of ``query``.

        Only attribute-partitioned federations prune: a shard whose owned
        range of the partition attribute does not intersect the query's
        explicit range on that attribute is a guaranteed underflow, so
        skipping it costs nothing and changes nothing.
        """
        if self._partitions is None:
            return list(range(len(self._shards)))
        targets: List[int] = []
        for index, partition in enumerate(self._partitions):
            if partition is not None:
                constraint = query.range_on(partition.attribute)
                if constraint is not None and partition.intersect(constraint) is None:
                    continue
            targets.append(index)
        return targets

    def _shard_search(
        self, index: int, query: SearchQuery, deadline: Deadline
    ) -> SearchResult:
        stack = self._stacks[index]
        if self._cache is None:
            return stack.search(query, deadline)
        # The stack's guard wraps only the remote compute: cache hits never
        # touch the breaker, so cached answers keep serving while a shard is
        # down, and breaker state reflects only real round trips.
        result, status = self._cache.fetch(
            self._namespaces[index],
            query,
            stack.system_k,
            lambda: stack.search(query, deadline),
        )
        if status is not FetchStatus.MISS:
            with self._lock:
                self._shard_cache_hits[index] += 1
        return result

    def _stale_shard_answer(
        self, index: int, query: SearchQuery
    ) -> Optional[SearchResult]:
        """A generation-stale cached answer for a failed shard, when the
        resilience policy allows serving it (marked stale + degraded)."""
        if self._cache is None or not self._resilience.serve_stale_on_error:
            return None
        stale = self._cache.serve_stale(
            self._namespaces[index], query, self._stacks[index].system_k
        )
        if stale is not None:
            self._resilience_stats.record("stale_serves")
            self._resilience_stats.record("stale_shard_answers")
        return stale

    def _shortest_retry_hint(self) -> Optional[float]:
        """The soonest any shard's breaker would admit a probe (for the
        ``Retry-After`` hint of a total-outage 503)."""
        waits = [stack.guard.breaker.seconds_until_probe() for stack in self._stacks]
        positive = [wait for wait in waits if wait > 0]
        if not positive:
            return None
        return min(positive)

    # ------------------------------------------------------------------ #
    # Cache / shard management
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> List[HiddenWebDatabase]:
        """The shard databases (reference order = shard index)."""
        return list(self._shards)

    @property
    def shard_stacks(self) -> List[SourceStack]:
        """Each shard's source stack: all shard traffic flows through these,
        so ``stack.statistics`` aggregates the per-shard budget spent and
        ``stack.guard`` / ``stack.injector`` are that shard's breaker and
        fault schedule."""
        return list(self._stacks)

    @property
    def shard_namespaces(self) -> List[str]:
        """Cache namespace of each shard (its database name)."""
        return list(self._namespaces)

    @property
    def shard_count(self) -> int:
        """Number of shards federated behind this interface."""
        return len(self._shards)

    @property
    def shard_by(self) -> str:
        """Partitioning key (``"rank"`` or the partition attribute name)."""
        return self._shard_by

    # ------------------------------------------------------------------ #
    # Resilience
    # ------------------------------------------------------------------ #
    @property
    def resilience_statistics(self) -> ResilienceStatistics:
        """The shared counters every shard guard records into."""
        return self._resilience_stats

    def fault_injectors(self) -> List[Optional[FaultInjector]]:
        """Each shard's :class:`FaultInjector` (``None`` for clean shards);
        the chaos harness uses these to heal or re-plan outages mid-run."""
        return [stack.injector for stack in self._stacks]

    def resilience_snapshot(self) -> Dict[str, object]:
        """Aggregated resilience counters plus per-shard breaker states."""
        return guards_snapshot(
            self._resilience_stats, [stack.guard for stack in self._stacks]
        )

    def invalidate_shard(self, index: int) -> int:
        """Retire shard ``index``'s cached answers (returns entries removed).

        Sibling shards' namespaces are untouched — their cached answers keep
        serving.  Callers owning federated-level state derived from *all*
        shards (merged cache entries, feeds, dense regions) must retire that
        state themselves; :meth:`repro.core.reranker.QueryReranker.invalidate`
        does.
        """
        if not 0 <= index < len(self._shards):
            raise QueryError(f"no shard {index}; federation has {len(self._shards)}")
        if self._cache is None:
            return 0
        return self._cache.invalidate(self._namespaces[index])

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def has_key(self, key: object) -> bool:
        """True when any shard currently holds a tuple with this key."""
        return self._owner_of(key) is not None

    def apply_delta(
        self,
        upserts: Sequence[Row] = (),
        deletes: Sequence[object] = (),
    ) -> CatalogDelta:
        """Route a catalog mutation to the owning shards and return the
        merged :class:`CatalogDelta` (with the per-shard breakdown attached
        as ``shard_deltas``).

        Deletes go to the shard currently holding the key.  Upserts of an
        attribute-partitioned federation are routed by the *new* value of the
        partition attribute; when an update moves a tuple across partitions
        it becomes a delete on the old owner plus an insert on the new one —
        anything else would break the shard-pruning invariant that a shard
        only holds tuples inside its owned range.  Rank-partitioned upserts
        stay on their current owner (new keys go to the smallest shard).
        """
        shard_upserts: List[List[Row]] = [[] for _ in self._shards]
        shard_deletes: List[List[object]] = [[] for _ in self._shards]
        for key in deletes:
            owner = self._owner_of(key)
            if owner is None:
                raise QueryError(f"cannot delete unknown tuple key {key!r}")
            shard_deletes[owner].append(key)
        key_column = self._schema.key
        for row in upserts:
            materialized = dict(row)
            key = materialized.get(key_column)
            current = self._owner_of(key)
            target = self._target_shard_for(materialized, current)
            if current is not None and current != target:
                shard_deletes[current].append(key)
            shard_upserts[target].append(materialized)
        shard_deltas: List[Tuple[int, CatalogDelta]] = []
        for index, shard in enumerate(self._shards):
            if not shard_upserts[index] and not shard_deletes[index]:
                continue
            delta = shard.apply_delta(
                upserts=shard_upserts[index],
                deletes=list(dict.fromkeys(shard_deletes[index])),
            )
            if not delta.is_empty:
                shard_deltas.append((index, delta))
        return merge_shard_deltas(self.name, shard_deltas)

    def _owner_of(self, key: object) -> Optional[int]:
        for index, shard in enumerate(self._shards):
            if shard.has_key(key):
                return index
        return None

    def _target_shard_for(self, row: Row, current: Optional[int]) -> int:
        if self._partitions is not None:
            value = row.get(self._shard_by)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                for index, partition in enumerate(self._partitions):
                    if partition is not None and partition.matches(float(value)):
                        return index
        if current is not None:
            return current
        sizes = [shard.size for shard in self._shards]
        return sizes.index(min(sizes))

    def reset_query_count(self) -> None:
        """Reset the scatter counter and every shard's query counter
        (benchmark repetitions)."""
        with self._lock:
            self._scatter_count = 0
        for shard in self._shards:
            shard.reset_query_count()

    # ------------------------------------------------------------------ #
    # Ground-truth helpers (tests / benchmark harness only)
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Total tuples across every shard."""
        return sum(shard.size for shard in self._shards)

    def all_matches(self, query: SearchQuery) -> List[Row]:
        """Every matching tuple across the federation, in hidden-rank order."""
        merged = [row for shard in self._shards for row in shard.all_matches(query)]
        merged.sort(key=self._system_ranking.sort_key(self._schema.key))
        return merged

    def true_ranking(self, query: SearchQuery, score, limit: Optional[int] = None):
        """Ground-truth reranking across every shard (tests only)."""
        matches = self.all_matches(query)
        matches.sort(key=lambda row: (score(row), str(row[self._schema.key])))
        if limit is not None:
            return matches[:limit]
        return matches

    def shard_queries_issued(self) -> int:
        """Raw shard hits across the federation (cache hits excluded)."""
        return sum(stack.statistics.queries for stack in self._stacks)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Structured federation metrics for the service statistics panel:
        per-shard queries issued, merge depth, and scatter fan-out."""
        with self._lock:
            scatter = self._scatter_count
            pruned = self._pruned_shard_queries
            fanout_total = self._fanout_total
            fanout_max = self._fanout_max
            merge_rows = self._merge_rows_total
            merge_max = self._merge_depth_max
            cache_hits = list(self._shard_cache_hits)
        shards = []
        for index, stack in enumerate(self._stacks):
            stats = stack.statistics.snapshot()
            partition = (
                self._partitions[index].describe()
                if self._partitions is not None and self._partitions[index] is not None
                else "rank round-robin"
            )
            shards.append(
                {
                    "name": self._namespaces[index],
                    "partition": partition,
                    "size": self._shards[index].size,
                    "system_k": self._shards[index].system_k,
                    "engine": self._shards[index].engine_name,
                    "queries": stats["queries"],
                    "rows_returned": stats["rows_returned"],
                    "elapsed_seconds": stats["elapsed_seconds"],
                    "cache_hits": cache_hits[index],
                }
            )
        return {
            "name": self.name,
            "shard_by": self._shard_by,
            "shard_count": len(self._shards),
            "system_k": self._system_k,
            "scatter_queries": scatter,
            "shard_queries": self.shard_queries_issued(),
            "pruned_shard_queries": pruned,
            "fan_out": {
                "total": fanout_total,
                "max": fanout_max,
                "mean": (fanout_total / scatter) if scatter else 0.0,
            },
            "merge": {
                "rows_merged": merge_rows,
                "max_depth": merge_max,
                "mean_depth": (merge_rows / scatter) if scatter else 0.0,
            },
            "shards": shards,
            "resilience": self.resilience_snapshot(),
        }


def build_federation(
    catalog: ColumnTable,
    schema: Schema,
    system_ranking: SystemRankingFunction,
    shards: int = 2,
    by: str = "rank",
    name: str = "federation",
    system_k: int = 20,
    latency_mean: float = 0.0,
    latency_jitter: float = 0.25,
    latency_seed: int = 11,
    latency_sleep: bool = False,
    engine: str = "indexed",
    specs: Optional[Sequence[Optional[ShardSpec]]] = None,
    result_cache: Optional[QueryResultCache] = None,
    columnar_backend: str = "buffer",
    fault_plan: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
    clock: Callable[[], float] = time.monotonic,
) -> FederatedInterface:
    """Partition ``catalog`` and wrap the shards in a federated interface.

    This is the one-call path the service registry and the experiment
    harness use; ``shards=1`` still produces a (single-shard) federation —
    callers wanting the unsharded reference engine construct
    :class:`HiddenWebDatabase` directly.  ``fault_plan`` gives every shard's
    stack a deterministic :class:`~repro.webdb.faults.FaultInjector`
    (per-shard seed offsets keep the shard schedules independent but
    replayable); ``resilience`` is the policy of the shard guards and
    ``clock`` their breakers' recovery clock.
    """
    sharded = ShardedCatalog.partition(catalog, schema, system_ranking, shards, by=by)
    databases = sharded.build_databases(
        system_ranking,
        name=name,
        system_k=system_k,
        latency_mean=latency_mean,
        latency_jitter=latency_jitter,
        latency_seed=latency_seed,
        latency_sleep=latency_sleep,
        engine=engine,
        specs=specs,
        columnar_backend=columnar_backend,
    )
    return FederatedInterface(
        databases,
        system_ranking,
        name=name,
        system_k=system_k,
        partitions=sharded.partitions,
        shard_by=sharded.shard_by,
        result_cache=result_cache,
        fault_plans=shard_fault_plans(len(databases), fault_plan, specs),
        resilience=resilience,
        clock=clock,
    )


def build_federation_from_store(
    store: "SQLiteTupleStore",
    schema: Schema,
    system_ranking: SystemRankingFunction,
    shards: int = 2,
    by: str = "rank",
    name: str = "federation",
    system_k: int = 20,
    latency_mean: float = 0.0,
    latency_jitter: float = 0.25,
    latency_seed: int = 11,
    latency_sleep: bool = False,
    engine: str = "indexed",
    specs: Optional[Sequence[Optional[ShardSpec]]] = None,
    result_cache: Optional[QueryResultCache] = None,
    columnar_backend: str = "buffer",
    batch_size: int = 10_000,
    fault_plan: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
    clock: Callable[[], float] = time.monotonic,
) -> FederatedInterface:
    """Stream a catalog out of a SQLite store into a federated interface.

    Equivalent to loading the store's rows into a :class:`ColumnTable` and
    calling :func:`build_federation` — same partitioning semantics (rank
    round-robin / attribute quantile cuts), same shard naming, byte-identical
    pages — but the catalog is transposed into rank-ordered columns batch by
    batch (:func:`~repro.webdb.database.stream_sorted_columns`) and each
    shard's catalog is a positional slice of those columns: at no point do
    per-row dictionaries of the whole catalog exist, which is what makes
    million-tuple federations constructible within a sane memory ceiling.
    """
    if shards <= 0:
        raise QueryError("shard count must be positive")
    column_order = schema.columns()
    columns = stream_sorted_columns(store, schema, system_ranking, batch_size=batch_size)
    size = len(columns[schema.key])
    # Partition rank *positions* (the columns are already in hidden-rank
    # order, so increasing-position subsets stay rank-ordered per shard).
    partitions: Optional[List[Optional[RangePredicate]]] = None
    if by == "rank":
        shard_by = "rank"
        buckets: List[List[int]] = [
            list(range(start, size, shards)) for start in range(shards)
        ]
        buckets = [bucket for bucket in buckets if bucket]
    else:
        schema.require_numeric(by)
        if size == 0:
            raise QueryError("cannot partition an empty catalog")
        shard_by = by
        attribute_column = columns[by]
        values = sorted(float(value) for value in attribute_column)  # type: ignore[arg-type]
        # Quantile boundaries, deduplicated — mirrors ShardedCatalog._by_attribute.
        cuts: List[float] = []
        for index in range(1, shards):
            cut = values[(index * len(values)) // shards]
            if not cuts or cut > cuts[-1]:
                cuts.append(cut)
        bounds: List[Tuple[float, float]] = []
        lower = float("-inf")
        for cut in cuts:
            bounds.append((lower, cut))
            lower = cut
        bounds.append((lower, float("inf")))
        raw_buckets: List[List[int]] = [[] for _ in bounds]
        for position in range(size):
            value = float(attribute_column[position])  # type: ignore[arg-type]
            for index, (low, high) in enumerate(bounds):
                if low <= value < high or (index == len(bounds) - 1 and value >= low):
                    raw_buckets[index].append(position)
                    break
        buckets = []
        partitions = []
        for bucket, (low, high) in zip(raw_buckets, bounds):
            if not bucket:
                continue
            buckets.append(bucket)
            partitions.append(
                RangePredicate(
                    by,
                    lower=low,
                    upper=high,
                    include_lower=True,
                    include_upper=high == float("inf"),
                )
            )
    if specs is not None and len(specs) != len(buckets):
        raise QueryError("specs must align with shard tables")
    databases: List[HiddenWebDatabase] = []
    for index, bucket in enumerate(buckets):
        shard_columns = {
            column: [columns[column][position] for position in bucket]
            for column in column_order
        }
        columnar = ColumnarCatalog.from_columns(
            shard_columns, column_order, schema.key, backend=columnar_backend
        )
        spec = specs[index] if specs is not None else None
        shard_k, shard_engine, latency = _resolve_shard_spec(
            spec,
            index,
            system_k=system_k,
            engine=engine,
            latency_mean=latency_mean,
            latency_jitter=latency_jitter,
            latency_seed=latency_seed,
            latency_sleep=latency_sleep,
        )
        databases.append(
            HiddenWebDatabase.from_columnar(
                columnar,
                schema,
                system_ranking,
                system_k=shard_k,
                latency=latency,
                name=f"{name}#{index}",
                engine=shard_engine,
            )
        )
    del columns
    return FederatedInterface(
        databases,
        system_ranking,
        name=name,
        system_k=system_k,
        partitions=partitions,
        shard_by=shard_by,
        result_cache=result_cache,
        fault_plans=shard_fault_plans(len(databases), fault_plan, specs),
        resilience=resilience,
        clock=clock,
    )
