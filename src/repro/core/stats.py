"""Statistics collected for one reranking request.

The statistics panel of the QR2 UI shows two headline numbers per request: the
number of queries issued to the underlying web database and the processing
time (Fig. 4 of the paper reports 27 queries / 33 seconds for one Zillow
request).  :class:`RerankStatistics` tracks those plus the internal counters
the benchmarks and the tests need: parallel-iteration accounting (Fig. 2),
session-cache and dense-index hits, and crawl volume.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class RerankStatistics:
    """Mutable, thread-safe statistics for one reranking request.

    The field list below is the one place a counter is declared:
    :meth:`snapshot`, :meth:`merge`, :meth:`checkpoint` and
    :meth:`absorb_since` all walk it.
    """

    external_queries: int = 0
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    iterations: int = 0
    parallel_iterations: int = 0
    parallel_queries: int = 0
    sequential_queries: int = 0
    iteration_group_sizes: List[int] = field(default_factory=list)
    cache_hits: int = 0
    result_cache_hits: int = 0
    contained_answers: int = 0
    coalesced_queries: int = 0
    dense_index_hits: int = 0
    dense_regions_built: int = 0
    crawled_tuples: int = 0
    get_next_calls: int = 0
    tuples_returned: int = 0
    feed_hits: int = 0
    feed_replayed_tuples: int = 0
    feed_leader_advances: int = 0
    degraded_results: int = 0
    stale_serves: int = 0
    retried_queries: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._started: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def start_timer(self) -> None:
        """Mark the beginning of wall-clock measurement (idempotent)."""
        with self._lock:
            if self._started is None:
                self._started = time.perf_counter()

    def stop_timer(self) -> None:
        """Accumulate elapsed wall time since :meth:`start_timer`."""
        with self._lock:
            if self._started is not None:
                self.wall_seconds += time.perf_counter() - self._started
                self._started = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_iteration(
        self,
        group_size: int,
        simulated_seconds: float,
        parallel: Optional[bool] = None,
    ) -> None:
        """Record one algorithm iteration that issued ``group_size`` external
        queries costing ``simulated_seconds`` of simulated latency for the
        whole group.  ``parallel`` states whether the group was actually
        executed concurrently (default: it was whenever it had more than one
        member)."""
        if group_size <= 0:
            return
        if parallel is None:
            parallel = group_size > 1
        with self._lock:
            self.iterations += 1
            self.external_queries += group_size
            self.iteration_group_sizes.append(group_size)
            self.simulated_seconds += simulated_seconds
            if parallel and group_size > 1:
                self.parallel_iterations += 1
                self.parallel_queries += group_size
            else:
                self.sequential_queries += group_size

    def record_cache_hit(self, count: int = 1) -> None:
        """Record answers served from the session cache."""
        with self._lock:
            self.cache_hits += count

    def record_result_cache_hit(self, count: int = 1) -> None:
        """Record external queries answered from the shared result cache
        (zero budget, zero simulated round trips)."""
        with self._lock:
            self.result_cache_hits += count

    def record_contained_answer(self, count: int = 1) -> None:
        """Record external queries answered by containment: derived from a
        covering superset entry of the shared result cache (zero budget,
        zero simulated round trips)."""
        with self._lock:
            self.contained_answers += count

    def record_coalesced_query(self, count: int = 1) -> None:
        """Record external queries that coalesced onto an identical in-flight
        query instead of issuing their own round trip."""
        with self._lock:
            self.coalesced_queries += count

    def record_dense_index_hit(self, count: int = 1) -> None:
        """Record answers served from the dense-region index."""
        with self._lock:
            self.dense_index_hits += count

    def record_dense_region(self, crawled_tuples: int) -> None:
        """Record one dense region built on the fly."""
        with self._lock:
            self.dense_regions_built += 1
            self.crawled_tuples += crawled_tuples

    def record_get_next(self, returned: bool) -> None:
        """Record one Get-Next call and whether it produced a tuple."""
        with self._lock:
            self.get_next_calls += 1
            if returned:
                self.tuples_returned += 1

    def record_feed_replay(self, returned: bool) -> None:
        """Record one Get-Next call answered from a shared rerank feed's
        verified prefix — zero external queries, zero algorithm work."""
        with self._lock:
            self.feed_hits += 1
            if returned:
                self.feed_replayed_tuples += 1

    def record_feed_leader_advance(self, count: int = 1) -> None:
        """Record Get-Next calls for which this request led the shared feed
        (drove the real algorithm and extended the verified prefix)."""
        with self._lock:
            self.feed_leader_advances += count

    def record_degraded_result(self, count: int = 1) -> None:
        """Record external queries answered *partially*: one or more
        federated shards were unreachable and the merged result was marked
        degraded instead of failing the request."""
        with self._lock:
            self.degraded_results += count

    def record_stale_serve(self, count: int = 1) -> None:
        """Record external queries answered from a generation-stale cache
        entry while the live source was unavailable."""
        with self._lock:
            self.stale_serves += count

    def record_retried_query(self, count: int = 1) -> None:
        """Record external queries that needed at least one retry."""
        with self._lock:
            self.retried_queries += count

    def degradation_mark(self) -> Dict[str, int]:
        """Mark of the degradation counters; compare a later mark to detect
        that an operation served degraded or stale data (the shared rerank
        feed uses this to refuse extending its verified prefix from a
        degraded advance)."""
        with self._lock:
            return {
                "degraded_results": self.degraded_results,
                "stale_serves": self.stale_serves,
            }

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def parallel_fraction(self) -> float:
        """Fraction of iterations whose queries were issued in parallel —
        the quantity plotted in the paper's Fig. 2."""
        if self.iterations == 0:
            return 0.0
        return self.parallel_iterations / self.iterations

    @property
    def parallel_query_fraction(self) -> float:
        """Fraction of external queries that were part of a parallel group."""
        if self.external_queries == 0:
            return 0.0
        return self.parallel_queries / self.external_queries

    @property
    def result_cache_hit_rate(self) -> float:
        """Fraction of the request's query demand served without a fresh
        round trip (shared-cache hits, containment answers, and coalesced
        queries over total demand).  ``external_queries`` only counts real
        round trips, so the denominator adds the avoided ones back in."""
        avoided = (
            self.result_cache_hits + self.contained_answers + self.coalesced_queries
        )
        demand = self.external_queries + avoided
        if demand == 0:
            return 0.0
        return avoided / demand

    @property
    def processing_seconds(self) -> float:
        """Best estimate of end-to-end processing time: simulated network time
        (parallel groups cost one round trip) plus local wall time."""
        return self.simulated_seconds + self.wall_seconds

    def snapshot(self) -> Dict[str, object]:
        """Plain-dictionary snapshot for the service's statistics panel:
        every field in declaration order, each derived ratio right after the
        counter it closes over."""
        with self._lock:
            panel: Dict[str, object] = {name: getattr(self, name) for name in _PANEL}
            for name, digits in _ROUNDED.items():
                panel[name] = round(panel[name], digits)  # type: ignore[call-overload]
            panel["iteration_group_sizes"] = list(self.iteration_group_sizes)
            return panel

    # ------------------------------------------------------------------ #
    # Folding one statistics object into another
    # ------------------------------------------------------------------ #
    def _read(
        self, names: Sequence[str], sizes_from: int = 0
    ) -> Tuple[Dict[str, float], List[int]]:
        """One consistent read of ``names`` plus the group-size tail."""
        with self._lock:
            return (
                {name: getattr(self, name) for name in names},
                self.iteration_group_sizes[sizes_from:],
            )

    def _add(
        self, values: Dict[str, float], since: Dict[str, float], sizes: List[int]
    ) -> None:
        with self._lock:
            for name, value in values.items():
                setattr(self, name, getattr(self, name) + value - since.get(name, 0))
            self.iteration_group_sizes.extend(sizes)

    def checkpoint(self) -> Dict[str, float]:
        """Lightweight mark of the absorbable counters, for later
        :meth:`absorb_since` delta accounting."""
        with self._lock:
            mark: Dict[str, float] = {name: getattr(self, name) for name in _ABSORBED}
            mark["iteration_group_sizes"] = len(self.iteration_group_sizes)
            return mark

    def absorb_since(self, other: "RerankStatistics", mark: Dict[str, float]) -> None:
        """Fold into this object the algorithm work ``other`` accumulated
        since ``mark`` (a :meth:`checkpoint` of ``other``).

        Used by shared rerank feeds: the stream leading an advance absorbs the
        producer's per-advance delta, so its statistics panel reflects exactly
        the external queries and latency its Get-Next call caused."""
        current, tail = other._read(_ABSORBED, int(mark["iteration_group_sizes"]))
        self._add(current, mark, tail)

    def merge(self, other: "RerankStatistics") -> None:
        """Fold another statistics object into this one (used when a request
        composes several sub-algorithms, e.g. MD-TA over per-attribute 1D
        streams)."""
        values, sizes = other._read(_COUNTERS)
        self._add(values, {}, sizes)


#: Every field in declaration (= panel) order, and the scalar counters.
_FIELDS = tuple(f.name for f in fields(RerankStatistics))
_COUNTERS = tuple(name for name in _FIELDS if name != "iteration_group_sizes")
#: Emission and feed counters a feed leader must *not* absorb from the shared
#: producer: the consumer stream records its own emissions, and the producer
#: serves many consumers.  Everything else is algorithm work it inherits.
_NOT_ABSORBED = (
    "get_next_calls",
    "tuples_returned",
    "feed_hits",
    "feed_replayed_tuples",
    "feed_leader_advances",
)
_ABSORBED = tuple(name for name in _COUNTERS if name not in _NOT_ABSORBED)
#: The panel: every field, with each derived ratio after the counter it
#: closes over, and the digits the non-integer entries are rounded to.
_DERIVED_AFTER = {
    "wall_seconds": "processing_seconds",
    "parallel_iterations": "parallel_fraction",
    "coalesced_queries": "result_cache_hit_rate",
}
_PANEL = tuple(
    entry
    for name in _FIELDS
    for entry in (name, _DERIVED_AFTER.get(name))
    if entry is not None
)
_ROUNDED = {
    "simulated_seconds": 6,
    "wall_seconds": 6,
    "processing_seconds": 6,
    "parallel_fraction": 4,
    "result_cache_hit_rate": 4,
}
