"""Deterministic fault injection for simulated hidden-web sources.

The paper's setting is reranking over *remote* sources, which fail: queries
time out, endpoints throw transient errors, whole replicas go dark and come
back.  Following the discrete-event-simulation approach of Bhosekar et al.
(arXiv:2006.06764), faults here are a *deterministic schedule*, not live
randomness: a :class:`FaultPlan` is seeded, and the fault drawn for the N-th
query through a given injector is a pure function of ``(seed, N)``.  Replaying
the same query sequence replays the same faults, so resilience claims become
differential gates (byte-identical pages after recovery) instead of flaky
assertions.

:class:`FaultInjector` is the fault stage of a
:class:`~repro.webdb.stack.SourceStack`: it sits between the stack's guard and
the database.  A slot is drawn first (:meth:`FaultInjector.draw`, in order)
and applied second (:meth:`FaultInjector.apply`) — perturbing one query:

* ``TRANSIENT`` — the query raises :class:`SourceUnavailableError` (a retry
  may succeed: the next attempt draws the next schedule index);
* ``TIMEOUT`` — the query raises :class:`SourceTimeoutError` after *paying*
  ``timeout_seconds`` of simulated wall time (the cost an impatient caller
  eats before giving up);
* ``SLOW`` — the query succeeds but its ``elapsed_seconds`` is inflated by a
  latency spike;
* fail-stop windows — between ``fail_from`` and ``fail_until`` (query-index
  space) *every* query times out, modelling a crashed shard that later
  recovers.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SourceTimeoutError, SourceUnavailableError
from repro.webdb.counters import Counters
from repro.webdb.interface import SearchResult, TopKInterface
from repro.webdb.query import SearchQuery


class FaultKind(Enum):
    """What the schedule does to one query."""

    NONE = "none"
    TRANSIENT = "transient"
    TIMEOUT = "timeout"
    SLOW = "slow"
    FAIL_STOP = "fail_stop"


#: One drawn schedule slot: the fault and the simulated seconds it costs.
Slot = Tuple[FaultKind, float]
#: The slot of a query nothing perturbs.
CLEAN: Slot = (FaultKind.NONE, 0.0)
#: Kinds whose query still reaches the source (a SLOW one only pays more).
PASSING = frozenset({FaultKind.NONE, FaultKind.SLOW})


# Knuth's multiplicative hash constant: decorrelates per-index streams drawn
# from one seed without the schedules of adjacent indexes resembling each
# other.
_INDEX_HASH = 2654435761


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable fault schedule.

    Parameters
    ----------
    seed:
        Schedule seed.  The fault at query index ``i`` is a pure function of
        ``(seed, i)`` — two injectors with equal plans fed the same query
        sequence fail identically.
    transient_rate:
        Probability (per query index) of a retryable transient error.
    timeout_rate:
        Probability of a per-attempt timeout (pays ``timeout_seconds``).
    slow_rate:
        Probability of a latency spike (query succeeds, elapsed inflated).
    timeout_seconds:
        Simulated seconds a timed-out attempt costs before it fails, and the
        floor of a slow query's inflated latency.
    slow_factor:
        Multiplier applied to ``timeout_seconds`` for latency-spike draws.
    fail_from / fail_until:
        Fail-stop window in query-index space: every query whose schedule
        index ``i`` satisfies ``fail_from <= i < fail_until`` times out
        unconditionally.  ``fail_until=None`` means the outage never heals.
    """

    seed: int = 0
    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    slow_rate: float = 0.0
    timeout_seconds: float = 1.0
    slow_factor: float = 4.0
    fail_from: Optional[int] = None
    fail_until: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("transient_rate", "timeout_rate", "slow_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")

    @property
    def is_noop(self) -> bool:
        """True when the plan can never perturb a query."""
        return (
            self.transient_rate == 0.0
            and self.timeout_rate == 0.0
            and self.slow_rate == 0.0
            and self.fail_from is None
        )

    def in_fail_window(self, index: int) -> bool:
        """Whether query index ``index`` falls inside the fail-stop window."""
        if self.fail_from is None or index < self.fail_from:
            return False
        return self.fail_until is None or index < self.fail_until

    def fault_at(self, index: int) -> Tuple[FaultKind, float]:
        """The fault scheduled for query index ``index``.

        Returns ``(kind, cost_seconds)`` where ``cost_seconds`` is the
        simulated time the fault adds to the round trip.  Pure: the same
        ``(plan, index)`` always yields the same answer.
        """
        if self.in_fail_window(index):
            return FaultKind.FAIL_STOP, self.timeout_seconds
        rng = random.Random(self.seed * _INDEX_HASH + index)
        draw = rng.random()
        threshold = self.transient_rate
        if draw < threshold:
            return FaultKind.TRANSIENT, 0.0
        threshold += self.timeout_rate
        if draw < threshold:
            return FaultKind.TIMEOUT, self.timeout_seconds
        threshold += self.slow_rate
        if draw < threshold:
            spike = self.timeout_seconds * (1.0 + rng.random() * (self.slow_factor - 1.0))
            return FaultKind.SLOW, spike
        return FaultKind.NONE, 0.0



@dataclass
class FaultCounts(Counters):
    """Queries an injector has seen, by the :class:`FaultKind` each drew
    (``none`` counts clean passes)."""

    none: int = 0
    transient: int = 0
    timeout: int = 0
    slow: int = 0
    fail_stop: int = 0


class FaultInjector:
    """A scheduled fault stream in front of one source's ``search``.

    The injector keeps a monotone *schedule index*: each query it actively
    perturbs (or passes through) consumes one index, so the fault sequence is
    a deterministic function of the plan and the number of queries seen.
    ``deactivate()`` freezes the index and makes the injector transparent —
    the chaos harness heals a federation without perturbing the schedule
    replay of a later phase.
    """

    def __init__(self, inner: TopKInterface, plan: FaultPlan) -> None:
        self._inner = inner
        self._name: str = getattr(inner, "name", "source")
        self._plan = plan
        self._index = 0
        self._active = True
        self._lock = threading.Lock()
        self._counts = FaultCounts()

    def search(self, query: SearchQuery) -> SearchResult:
        """Draw the next schedule slot, then fail, delay or pass ``query``."""
        return self.apply(self.draw(1)[0], query)

    def draw(self, count: int) -> List[Slot]:
        """Consume the next ``count`` slots in order, under one lock (while
        inactive every slot is a clean pass and the index stays frozen)."""
        with self._lock:
            if not self._active:
                slots = [CLEAN] * count
            else:
                start = self._index
                self._index += count
                slots = [self._plan.fault_at(index) for index in range(start, self._index)]
            self._counts.add(**Counter(kind.value for kind, _ in slots))
        return slots

    def apply(self, slot: Slot, query: SearchQuery) -> SearchResult:
        """Fail ``query`` as ``slot`` says, or pass it to the source and add
        the slot's latency spike to its round trip."""
        kind, cost = slot
        name = self._name
        if kind is FaultKind.TRANSIENT:
            raise SourceUnavailableError(f"{name}: scheduled transient fault", source=name)
        if kind not in PASSING:
            raise SourceTimeoutError(
                f"{name}: scheduled {kind.value} (paid {cost:.3f}s waiting)",
                source=name,
                elapsed_seconds=cost,
            )
        return delayed(self._inner.search(query), cost)

    # ------------------------------------------------------------------ #
    # Schedule control (chaos harness / tests)
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> FaultPlan:
        """The active fault plan."""
        with self._lock:
            return self._plan

    @property
    def active(self) -> bool:
        """Whether the injector currently draws from its schedule."""
        with self._lock:
            return self._active

    @property
    def perturbs(self) -> bool:
        """Whether a query through this injector can be failed or delayed:
        it is active and its plan is not a no-op.  While false the source
        stack bypasses the injector and draws no slots."""
        with self._lock:
            return self._active and not self._plan.is_noop

    @property
    def schedule_index(self) -> int:
        """Schedule indexes consumed so far (faulted + clean, while active)."""
        with self._lock:
            return self._index

    def activate(self) -> None:
        """Resume injecting faults (the schedule index continues)."""
        with self._lock:
            self._active = True

    def deactivate(self) -> None:
        """Heal the source: pass every query through untouched.  The schedule
        index freezes, so reactivating resumes the plan where it left off."""
        with self._lock:
            self._active = False

    def set_plan(self, plan: FaultPlan) -> None:
        """Swap in a new plan and rewind the schedule (a bench phase switches
        from a transient-noise plan to a fail-stop outage, say)."""
        with self._lock:
            self._plan = plan
            self._index = 0
            self._active = True

    def fault_counts(self) -> Dict[str, int]:
        """Per-kind counts of queries seen (``"none"`` counts clean passes)."""
        return self._counts.snapshot()


def delayed(result: SearchResult, spike: float) -> SearchResult:
    """``result`` with a passing slot's latency spike added to its round trip."""
    if not spike:
        return result
    return replace(result, elapsed_seconds=result.elapsed_seconds + spike)
