"""Network latency simulation.

Reranking a query through a third-party service is dominated by round trips to
the remote web database (the paper's Fig. 4 reports 33 seconds for 27 queries
against Zillow, i.e. roughly a second per query).  The latency model makes that
cost explicit so that the parallel-processing benchmarks can demonstrate the
benefit of issuing verification queries together.

Two modes are supported:

* ``sleep=True`` — the model actually sleeps, once per batch of queries sent
  together, for the batch's longest round trip;
* ``sleep=False`` — the model only *accounts* for the delay, returning the
  number of seconds a real call would have taken.  The benchmark harness uses
  this mode to report paper-comparable times without spending hours sleeping.

Either way the draws are the same function of the seed.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import List


@dataclass
class LatencyModel:
    """Configurable per-query latency.

    Parameters
    ----------
    mean_seconds:
        Mean simulated round-trip time.  ``0.0`` disables latency entirely.
    jitter:
        Fractional jitter: each draw is uniform in
        ``[mean*(1-jitter), mean*(1+jitter)]``.
    sleep:
        Whether :meth:`delay` actually sleeps or just accounts.
    seed:
        Seed for the jitter; draws are thread-safe.
    """

    mean_seconds: float = 0.0
    jitter: float = 0.25
    sleep: bool = False
    seed: int = 11

    def __post_init__(self) -> None:
        if self.mean_seconds < 0:
            raise ValueError("mean_seconds must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def delay(self, count: int = 1) -> List[float]:
        """Apply the latency of ``count`` queries sent as one batch.

        Returns the seconds attributed to each query, drawn in batch order
        under one hold of the lock.  When ``sleep`` is enabled the calling
        thread is blocked once, for the longest of them: the batch is one
        round trip, which is what the query engine charges a parallel group.
        """
        if self.mean_seconds == 0.0:
            return [0.0] * count
        spread = (1.0 - self.jitter, 1.0 + self.jitter)
        with self._lock:
            seconds = [self.mean_seconds * self._rng.uniform(*spread) for _ in range(count)]
        if self.sleep and seconds:
            time.sleep(max(seconds))
        return seconds

    @staticmethod
    def disabled() -> "LatencyModel":
        """A latency model that never delays (unit tests)."""
        return LatencyModel(mean_seconds=0.0)

    @staticmethod
    def accounted(mean_seconds: float, jitter: float = 0.25, seed: int = 11) -> "LatencyModel":
        """Latency that is accounted for but never slept (benchmarks)."""
        return LatencyModel(mean_seconds=mean_seconds, jitter=jitter, sleep=False, seed=seed)
