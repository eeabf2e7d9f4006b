"""Statistics collected for one reranking request.

The statistics panel of the QR2 UI shows two headline numbers per request: the
number of queries issued to the underlying web database and the processing
time (Fig. 4 of the paper reports 27 queries / 33 seconds for one Zillow
request).  :class:`RerankStatistics` tracks those plus the internal counters
the benchmarks and the tests need: parallel-iteration accounting (Fig. 2),
session-cache and dense-index hits, and crawl volume.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from repro.webdb.counters import Counters


@dataclass
class RerankStatistics(Counters):
    """Mutable, thread-safe statistics for one reranking request.

    The field list below is the one place a counter is declared:
    :meth:`snapshot`, :meth:`checkpoint` and :meth:`absorb_since` all walk
    it.  Callers count with :meth:`record` / :meth:`add`, e.g.
    ``add(get_next_calls=1, tuples_returned=1)``.
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

    #: Each derived ratio follows the counter it closes over.
    DERIVED_AFTER = {
        "wall_seconds": "processing_seconds",
        "parallel_iterations": "parallel_fraction",
        "coalesced_queries": "result_cache_hit_rate",
    }
    ROUNDED = {
        "simulated_seconds": 6,
        "wall_seconds": 6,
        "processing_seconds": 6,
        "parallel_fraction": 4,
        "result_cache_hit_rate": 4,
    }

    def __post_init__(self) -> None:
        super().__post_init__()
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
    def record_iteration(self, group_size: int, simulated_seconds: float) -> None:
        """Record one algorithm iteration that issued ``group_size`` external
        queries as one round trip costing ``simulated_seconds`` of simulated
        latency; a group of more than one query went out in parallel."""
        if group_size <= 0:
            return
        with self._lock:
            self.iterations += 1
            self.external_queries += group_size
            self.iteration_group_sizes.append(group_size)
            self.simulated_seconds += simulated_seconds
            if group_size > 1:
                self.parallel_iterations += 1
                self.parallel_queries += group_size
            else:
                self.sequential_queries += group_size

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

    # ------------------------------------------------------------------ #
    # Folding one statistics object into another
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> Tuple[Tuple[float, ...], int]:
        """Lightweight mark of the absorbable counters, for later
        :meth:`absorb_since` delta accounting."""
        with self._lock:
            return _absorbed(self), len(self.iteration_group_sizes)

    def absorb_since(self, other: "RerankStatistics", mark: Tuple[Tuple[float, ...], int]) -> bool:
        """Fold into this object the algorithm work ``other`` accumulated
        since ``mark`` (a :meth:`checkpoint` of ``other``), counter by
        counter that moved; True when that work served degraded or stale data.

        Used by shared rerank feeds: the stream leading an advance absorbs the
        producer's per-advance delta, so its statistics panel reflects exactly
        the external queries and latency its Get-Next call caused."""
        values, groups = mark
        with other._lock:
            now = _absorbed(other)
            tail = other.iteration_group_sizes[groups:]
        moved = {name: new - old for name, new, old in zip(_ABSORBED, now, values) if new != old}
        self.add(iteration_group_sizes=tail, **moved)
        return "degraded_results" in moved or "stale_serves" in moved


#: Emission and feed counters a feed leader must *not* absorb from the shared
#: producer: the consumer stream records its own emissions, and the producer
#: serves many consumers.  Everything else is algorithm work it inherits.
_NOT_ABSORBED = (
    "iteration_group_sizes",
    "get_next_calls",
    "tuples_returned",
    "feed_hits",
    "feed_replayed_tuples",
    "feed_leader_advances",
)
_ABSORBED = tuple(
    spec.name for spec in fields(RerankStatistics) if spec.name not in _NOT_ABSORBED
)
_absorbed = operator.attrgetter(*_ABSORBED)
