"""Sharded, federated hidden-web sources.

Real deployments of the paper's scenario rarely sit on one monolithic
database: a large catalog is horizontally partitioned across shards, each
exposing its own top-k interface.  This module supplies the two pieces that
let the rest of the library stay shard-agnostic:

* :func:`partition_positions` — splits a hidden-rank-ordered catalog's rank
  positions into N disjoint buckets, either **by hidden rank** (round-robin
  in hidden-rank order, so every shard sees the same score distribution) or
  **by attribute range** (contiguous quantile slices of one numeric
  attribute, which enables shard pruning for range-filtered queries);
* :class:`FederatedInterface` — presents the shard sources as a single
  :class:`~repro.webdb.interface.TopKInterface`.  A query group **scatters**
  to the non-pruned shards, one batch per shard; each query **gathers** its
  shards' top-k pages and merges them by the (shared) hidden system ranking
  into one page that is *byte-identical* to what the unsharded reference
  database would return.

Correctness of the scatter-gather merge:

* every shard's ``k`` is required to be ≥ the federated ``k``, so the global
  top-k of any query is contained in the union of the per-shard top-k pages;
* shard catalogs are disjoint by construction and the merge comparator is the
  same ``(score, str(key))`` used by :class:`HiddenWebDatabase`, so the merged
  order equals the unsharded hidden-rank order exactly;
* the outcome trichotomy is preserved: any shard overflow implies the global
  query overflows (that shard alone has unreturned matches); otherwise every
  matching tuple was gathered, and the total count classifies the result;
* disjoint shards whose pages all cover the query have together returned
  every match, so the full merge is the complete answer: beyond ``k`` it is
  kept as ``complete_rows`` beside the truncated ``OVERFLOW`` page.

Every shard is issued through its own
:class:`~repro.webdb.stack.SourceStack` (fault injector, guard, statistics),
built once when the federation is constructed.  The federation holds no
cache.  A merged answer carries the shard pages it was merged from, so a
federated query takes one entry of the query engine's
:class:`~repro.webdb.cache.QueryResultCache`, whose probe hands back a missed
query's stored shard parts.  :meth:`FederatedInterface.merge_parts` merges
them when every target has one: a cache answer, not a scatter.  Otherwise
they travel with the batch to :meth:`FederatedInterface.settle_many`, which
scatters only to the targets no part answers.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dataset.schema import Schema
from repro.exceptions import QueryError, SourceUnavailableError
from repro.webdb.cache import default_namespace
from repro.webdb.counters import Counters
from repro.webdb.delta import CatalogDelta, merge_shard_deltas
from repro.webdb.faults import FaultInjector, FaultPlan
from repro.webdb.interface import (
    Outcome,
    SearchResult,
    Settlement,
    TopKInterface,
    answers,
)
from repro.webdb.query import RangePredicate, Row, SearchQuery
from repro.webdb.ranking import SystemRankingFunction
from repro.webdb.resilience import ResilienceStatistics, guards_snapshot
from repro.webdb.stack import SourceStack


def partition_positions(
    columns: Mapping[str, Sequence[object]],
    schema: Schema,
    shards: int,
    by: str = "rank",
) -> Tuple[List[List[int]], Optional[List[RangePredicate]]]:
    """Split a rank-ordered catalog's positions into disjoint shard buckets.

    ``columns`` are hidden-rank-ordered (see
    :func:`~repro.webdb.database.stream_sorted_columns`), so every bucket —
    an increasing list of positions — is itself rank-ordered.  Empty buckets
    are dropped.  Returns ``(buckets, partitions)``:

    * ``by="rank"`` deals positions round-robin; ``partitions`` is ``None``;
    * any other value names a numeric attribute: the catalog is cut at the
      attribute's quantiles and ``partitions[i]`` is the range bucket *i*
      owns (used for shard pruning and for routing upserts).
    """
    if shards <= 0:
        raise QueryError("shard count must be positive")
    size = len(columns[schema.key])
    if by == "rank":
        buckets = [list(range(start, size, shards)) for start in range(shards)]
        return [bucket for bucket in buckets if bucket], None
    schema.require_numeric(by)
    if size == 0:
        raise QueryError("cannot partition an empty catalog")
    attribute_values = [float(value) for value in columns[by]]  # type: ignore[arg-type]
    ordered = sorted(attribute_values)
    # Quantile boundaries, deduplicated: a heavily skewed attribute can
    # yield fewer distinct cut points than requested shards, in which
    # case the federation simply has fewer (non-empty) shards.
    cuts: List[float] = []
    for index in range(1, shards):
        cut = ordered[(index * size) // shards]
        if not cuts or cut > cuts[-1]:
            cuts.append(cut)
    # Bucket i owns [cuts[i-1], cuts[i]) with open extremes at ±inf, so
    # every possible value belongs to exactly one bucket.
    raw_buckets: List[List[int]] = [[] for _ in range(len(cuts) + 1)]
    for position, value in enumerate(attribute_values):
        raw_buckets[bisect_right(cuts, value)].append(position)
    edges = [float("-inf")] + cuts + [float("inf")]
    buckets = []
    partitions: List[RangePredicate] = []
    for index, bucket in enumerate(raw_buckets):
        if not bucket:
            continue
        buckets.append(bucket)
        partitions.append(
            RangePredicate(
                by,
                lower=edges[index],
                upper=edges[index + 1],
                include_lower=True,
                include_upper=index == len(cuts),
            )
        )
    return buckets, partitions


@dataclass
class ScatterCounters(Counters):
    """A federation's scatter accounting: scatters served, shard queries
    pruned, fan-out, merge depth, scatters whose merge proved more than ``k``
    matches, and each shard's cache hits (by index)."""

    scatter_queries: int = 0
    pruned_shard_queries: int = 0
    fan_out_total: int = 0
    fan_out_max: int = 0
    rows_merged: int = 0
    max_depth: int = 0
    complete_merges: int = 0
    shard_cache_hits: Dict[int, int] = field(default_factory=dict)


@dataclass
class _Scatter:
    """One query's progress through a group's shard loop; pages by shard."""

    query: SearchQuery
    targets: List[int]
    pages: Dict[int, SearchResult] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)
    error: Optional[Exception] = None  #: fails the query; its shards stop


class FederatedInterface(TopKInterface):
    """N shard sources presented as one top-k source.

    A query group scatters to every shard its queries cannot be pruned from,
    gathers the per-shard pages, and merges them by the shared hidden system
    ranking — reproducing the unsharded reference database's pages byte for
    byte (see the module docstring for the argument).

    Each shard sits behind its own :class:`~repro.webdb.stack.SourceStack`,
    built here from ``fault_plans[i]`` with the default retry / breaker
    policy and ``clock`` as its breaker's recovery clock; the stacks' guards
    share one :class:`~repro.webdb.resilience.ResilienceStatistics`.  Guards
    are fixed at construction.
    """

    def __init__(
        self,
        shards: Sequence[TopKInterface],
        system_ranking: SystemRankingFunction,
        name: str = "federation",
        system_k: Optional[int] = None,
        partitions: Optional[Sequence[Optional[RangePredicate]]] = None,
        shard_by: str = "rank",
        fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
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
        self._sort_key = system_ranking.sort_key(self._schema.key)
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
        self._shard_names = [default_namespace(shard) for shard in self._shards]
        if len(set(self._shard_names)) != len(self._shard_names):
            raise QueryError(f"shard names must be unique: {self._shard_names}")
        if self.name in self._shard_names:
            raise QueryError(f"federation name {self.name!r} collides with a shard")
        self._resilience_stats = ResilienceStatistics()
        self._stacks = [
            SourceStack(
                shard,
                fault_plan=fault_plans[index] if fault_plans is not None else None,
                resilience_statistics=self._resilience_stats,
                clock=clock,
                name=self._shard_names[index],
            )
            for index, shard in enumerate(self._shards)
        ]
        self._partitions = list(partitions) if partitions is not None else None
        self._shard_by = shard_by
        self._counters = ScatterCounters()

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
        """Scatter ``query`` and gather one merged page (a group of one)."""
        return self.search_many([query])[0]

    def search_many(self, queries: Sequence[SearchQuery]) -> List[SearchResult]:
        return answers(self.settle_many(queries))

    def settle_many(
        self,
        queries: Sequence[SearchQuery],
        parts: Optional[Sequence[Mapping[int, SearchResult]]] = None,
    ) -> List[Settlement]:
        """Scatter a group and gather one merged page per query, each
        settled on its own.

        ``parts`` (aligned with ``queries``) are the stored shard pages, by
        shard index, the caller's cache probe read; without them every
        target shard is asked.  Every shard, in index order, settles the
        group's queries that target it without a part as one batch (a
        repeat asked once).  A shard that fails a query (retries
        exhausted, breaker open) does not fail that query: it is
        named in ``missing_shards`` and the merge is *degraded* — classified
        over its live shards' pages alone, so a descent or a crawl stops
        where they cover it, and never served from the result cache.  Only a
        query to which **no** shard contributed anything settles as an error.
        """
        batch = list(queries)
        for query in batch:
            query.validate(self._schema)
        scatters = [_Scatter(query, self._targets_for(query)) for query in batch]
        for scatter, found in zip(scatters, parts or ()):
            scatter.pages = {i: found[i] for i in scatter.targets if i in found}
            self._counters.tally("shard_cache_hits", dict.fromkeys(scatter.pages, 1))
        for index, stack in enumerate(self._stacks):
            asked: Dict[Tuple, List[_Scatter]] = {}
            for scatter in scatters:
                if scatter.error is None and index in scatter.targets and index not in scatter.pages:
                    asked.setdefault(scatter.query.canonical_key(), []).append(scatter)
            if not asked:
                continue
            # The stack's guard wraps only the round trip: stored parts never
            # touch the breaker, so they keep serving while a shard is down.
            settled = stack.settle_many([group[0].query for group in asked.values()])
            for group, answer in zip(asked.values(), settled):
                for scatter in group:
                    self._gather(scatter, index, answer)
        return [self._merge(scatter) for scatter in scatters]

    def merge_parts(
        self, query: SearchQuery, parts: Mapping[int, SearchResult]
    ) -> Optional[SearchResult]:
        """``query``'s answer merged, as a scatter would merge it, from the
        stored ``parts`` (shard pages by index) when every shard it targets
        has one, else ``None``.  No round trip is made, so only the parts
        are counted, as shard cache hits."""
        targets = self._targets_for(query)
        if any(i not in parts for i in targets):
            return None
        self._counters.tally("shard_cache_hits", dict.fromkeys(targets, 1))
        return self._merged(query, {i: parts[i] for i in targets})

    def close(self) -> None:
        for stack in self._stacks:
            stack.close()

    def queries_issued(self) -> int:
        """Scatters served by the federation (each is one logical query;
        :meth:`shard_queries_issued` counts the underlying shard hits).  A
        query :meth:`merge_parts` answered is not one."""
        return self._counters.read("scatter_queries")

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

    def _gather(self, scatter: _Scatter, index: int, answer: Settlement) -> None:
        """Fold shard ``index``'s answer for one query into its scatter."""
        if not isinstance(answer, Exception):
            scatter.pages[index] = answer
        elif isinstance(answer, SourceUnavailableError):
            scatter.missing.append(self._shard_names[index])
        else:
            # Any error but the shard being down fails the query; later
            # shards skip it.
            scatter.error = answer

    def _merge(self, scatter: _Scatter) -> Settlement:
        """One query's merged page, or the error that stopped its scatter."""
        if scatter.error is not None:
            return scatter.error
        pages = scatter.pages
        if scatter.targets and not pages:
            # Nothing answered: the whole federation is down.  Retry when the
            # soonest shard breaker would admit a probe.
            waits = [stack.guard.breaker.seconds_until_probe() for stack in self._stacks]
            return SourceUnavailableError(
                f"{self.name}: no shard reachable ({', '.join(scatter.missing)})",
                source=self.name,
                retry_after_seconds=min((wait for wait in waits if wait > 0), default=None),
            )
        merged = self._merged(scatter.query, pages, scatter.missing)
        total = sum(len(page.rows) for page in pages.values())
        fanout = len(scatter.targets)
        # Marks first: a concurrent describe() never sees a mean above its max.
        self._counters.peak(fan_out_max=fanout, max_depth=total)
        self._counters.add(
            scatter_queries=1,
            pruned_shard_queries=len(self._shards) - fanout,
            fan_out_total=fanout,
            rows_merged=total,
            complete_merges=int(merged.complete_rows is not None),
        )
        if merged.degraded:
            self._resilience_stats.record("degraded_scatters")
        return merged

    def _merged(
        self, query: SearchQuery, pages: Dict[int, SearchResult], missing: Sequence[str] = ()
    ) -> SearchResult:
        """The shard ``pages`` (by shard index) answering ``query`` merged
        into one page that carries them.

        Every page is in hidden-rank order under the shared sort key and
        keys are unique across shards, so a k-way merge yields exactly the
        rows a full sort would, ranking only the ``system_k`` it keeps (all
        of them, as ``complete_rows``, when every page covered the query).
        A degraded merge is classified over the ``pages`` of its live shards:
        it proves coverage of them alone, so it keeps no ``complete_rows``,
        and the cache keeps it only as parts."""
        degraded = bool(missing)
        covered = not any(page.is_overflow for page in pages.values())
        total = sum(len(page.rows) for page in pages.values())
        merged = heapq.merge(*(page.rows for page in pages.values()), key=self._sort_key)
        complete = tuple(merged) if covered and not degraded and total > self._system_k else None
        rows = complete[: self._system_k] if complete else tuple(islice(merged, self._system_k))
        if not covered or total > self._system_k:
            outcome = Outcome.OVERFLOW
        elif total == 0:
            outcome = Outcome.UNDERFLOW
        else:
            outcome = Outcome.VALID
        return SearchResult(
            query=query,
            rows=rows,
            outcome=outcome,
            system_k=self._system_k,
            elapsed_seconds=max((page.elapsed_seconds for page in pages.values()), default=0.0),
            degraded=degraded,
            missing_shards=tuple(missing),
            complete_rows=complete,
            shard_pages=tuple(sorted(pages.items())),
        )

    # ------------------------------------------------------------------ #
    # Cache / shard management
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> List[TopKInterface]:
        """The shard sources (reference order = shard index)."""
        return list(self._shards)

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

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def has_key(self, key: object) -> bool:
        """True when any shard currently holds a tuple with this key."""
        return self._owner_of(key) is not None

    def apply_delta(
        self,
        upserts: Iterable[Row] = (),
        deletes: Iterable[object] = (),
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
        stay on their current owner (new keys go to the smallest shard); of
        several upserts of one key only the last is routed, or the key could
        land on two shards.  Rows are validated and delete owners resolved
        before the first shard is touched: as for a single database, an
        error leaves every shard unmodified.
        """
        key_column = self._schema.key
        latest: Dict[object, Row] = {}
        for row in upserts:
            materialized = dict(row)
            self._schema.validate_row(materialized)
            latest[materialized[key_column]] = materialized
        shard_upserts: List[List[Row]] = [[] for _ in self._shards]
        shard_deletes: List[List[object]] = [[] for _ in self._shards]
        deleted: set = set()
        for key in deletes:
            owner = self._owner_of(key)
            if owner is None or key in deleted:
                raise QueryError(f"cannot delete unknown tuple key {key!r}")
            deleted.add(key)
            shard_deletes[owner].append(key)
        for key, materialized in latest.items():
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
        """Reset every scatter counter together, and every shard's query
        counter (benchmark repetitions)."""
        self._counters.reset()
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
        merged.sort(key=self._sort_key)
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
        counts = self._counters.snapshot()
        scatter = counts["scatter_queries"]
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
                    "name": self._shard_names[index],
                    "partition": partition,
                    "system_k": self._shards[index].system_k,
                    "queries": stats["queries"],
                    "rows_returned": stats["rows_returned"],
                    "elapsed_seconds": stats["elapsed_seconds"],
                    "cache_hits": counts["shard_cache_hits"].get(index, 0),
                }
            )
        return {
            "name": self.name,
            "shard_by": self._shard_by,
            "shard_count": len(self._shards),
            "system_k": self._system_k,
            "scatter_queries": scatter,
            "shard_queries": self.shard_queries_issued(),
            "pruned_shard_queries": counts["pruned_shard_queries"],
            "fan_out": {
                "total": counts["fan_out_total"],
                "max": counts["fan_out_max"],
                "mean": (counts["fan_out_total"] / scatter) if scatter else 0.0,
            },
            "merge": {
                "rows_merged": counts["rows_merged"],
                "max_depth": counts["max_depth"],
                "mean_depth": (counts["rows_merged"] / scatter) if scatter else 0.0,
                "complete_merges": counts["complete_merges"],
            },
            "shards": shards,
            "resilience": self.resilience_snapshot(),
        }
