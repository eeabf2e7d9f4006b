"""Resilience policies for unreliable sources: retries and circuit breakers.

:mod:`repro.webdb.faults` makes sources fail on a deterministic schedule;
this module is the other half — the policies that keep a federation serving
through those faults:

* :class:`RetryPolicy` — capped exponential backoff with *decorrelated
  jitter* (the AWS architecture-blog variant: each delay is drawn uniformly
  from ``[base, 3 * previous]`` and capped), seeded so the delay sequence is
  replayable;
* :class:`CircuitBreaker` — the classic closed → open → half-open automaton
  per source/shard.  While open, calls are rejected *without* paying the
  source's round trip; after ``recovery_seconds`` a single half-open probe is
  admitted, and its outcome closes or re-opens the circuit;
* :class:`SourceGuard` — one source/shard's retry loop wired through its
  breaker, the guard stage of a :class:`~repro.webdb.stack.SourceStack`.

Timeouts and backoff waits are charged in simulated time, never slept:
the chaos tests assert deterministic counters, not wall clock.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.exceptions import CircuitOpenError, SourceUnavailableError
from repro.webdb.counters import Counters

T = TypeVar("T")

_TOKEN_HASH = 2654435761


class RetryPolicy:
    """Capped exponential backoff with seeded decorrelated jitter.

    The defaults are the policy of every source stack's guard: three
    attempts, 0.05–2.0 s of backoff drawn from seed 17.  With a reliable
    source they change nothing — no fault means no retry.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_seconds: float = 0.05,
        cap_seconds: float = 2.0,
        seed: int = 17,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.max_attempts = max_attempts
        self.base_seconds = base_seconds
        self.cap_seconds = cap_seconds
        self.seed = seed

    def delays(self, token: int = 0) -> List[float]:
        """The backoff delays between the attempts of one call (length
        ``max_attempts - 1``).  Deterministic per ``(seed, token)``: replaying
        a call sequence replays its waits."""
        rng = random.Random(self.seed * _TOKEN_HASH + token)
        delays: List[float] = []
        previous = self.base_seconds
        for _ in range(self.max_attempts - 1):
            previous = min(self.cap_seconds, rng.uniform(self.base_seconds, previous * 3))
            delays.append(previous)
        return delays


class BreakerState:
    """String constants for the breaker automaton."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class BreakerTransitions(Counters):
    """A breaker's cumulative transitions, by the state each one entered."""

    opened: int = 0
    half_opened: int = 0
    closed: int = 0


class CircuitBreaker:
    """Closed → open → half-open circuit breaker for one source/shard.

    The defaults are every source stack's breaker: five consecutive
    failures open it, and 30 s later it admits one half-open probe.
    ``clock`` is injectable (tests drive recovery without sleeping).  All
    transitions are recorded so statistics panels can show the breaker's
    history — into the breaker's own counts and, at the moment they happen,
    into ``statistics`` when a guard has attached one — and
    :meth:`seconds_until_probe` feeds ``Retry-After`` hints.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.name = name
        self.statistics: Optional[ResilienceStatistics] = None
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._transitions = BreakerTransitions()

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    @property
    def is_open(self) -> bool:
        """True while calls would be rejected (open, before the probe window)."""
        with self._lock:
            self._maybe_half_open_locked()
            return self._state == BreakerState.OPEN

    def allow(self) -> bool:
        """Whether a call may proceed now.  In half-open state exactly one
        probe is admitted at a time; its success/failure settles the state."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == BreakerState.CLOSED:
                return True
            if self._state == BreakerState.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != BreakerState.CLOSED:
                self._state = BreakerState.CLOSED
                self._transition_locked("closed", "breaker_closes")

    def abandon_probe(self) -> None:
        """Release a half-open probe slot without settling the state (the
        probe died on a non-availability error that says nothing about the
        source being up)."""
        with self._lock:
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._probe_in_flight = False
            self._consecutive_failures += 1
            if self._state == BreakerState.HALF_OPEN:
                self._open_locked()  # failed probe: back to open, timer restarts
            elif (
                self._state == BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._open_locked()

    def seconds_until_probe(self) -> float:
        """Wall-clock seconds until the breaker would admit a probe (0 when
        it is not open)."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state != BreakerState.OPEN:
                return 0.0
            return max(0.0, self._opened_at + self.recovery_seconds - self._clock())

    def transitions(self) -> Dict[str, int]:
        """Cumulative transition counts (``opened``/``half_opened``/``closed``)."""
        return self._transitions.snapshot()

    def describe(self) -> Dict[str, object]:
        with self._lock:
            self._maybe_half_open_locked()
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "transitions": self._transitions.snapshot(),
            }

    def _open_locked(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._transition_locked("opened", "breaker_opens")

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == BreakerState.OPEN
            and self._clock() >= self._opened_at + self.recovery_seconds
        ):
            self._state = BreakerState.HALF_OPEN
            self._probe_in_flight = False
            self._transition_locked("half_opened", "breaker_half_opens")

    def _transition_locked(self, name: str, counter: str) -> None:
        self._transitions.record(name)
        if self.statistics is not None:
            self.statistics.record(counter)


@dataclass
class ResilienceStatistics(Counters):
    """Thread-safe counters shared by every guard of one source/reranker."""

    attempts: int = 0
    retries: int = 0
    failed_attempts: int = 0
    short_circuits: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    timeouts_paid: int = 0
    degraded_scatters: int = 0
    simulated_wait_seconds: float = 0.0


class SourceGuard:
    """One source/shard's retry loop wired through its circuit breaker.

    :meth:`call` is designed to wrap the *remote compute* closure inside a
    result-cache fetch: cache hits never reach the guard (a cached answer
    keeps serving while the breaker is open), and breaker state reflects only
    real round trips.
    """

    def __init__(
        self,
        name: str,
        policy: RetryPolicy,
        breaker: CircuitBreaker,
        statistics: Optional[ResilienceStatistics] = None,
    ) -> None:
        self.name = name
        self.policy = policy
        self.breaker = breaker
        self.statistics = statistics or ResilienceStatistics()
        breaker.statistics = self.statistics
        self._calls = 0
        self._lock = threading.Lock()

    def call(self, supply: Callable[[], T], queries: int = 1) -> T:
        """Run ``supply`` under the guard's breaker + retry policy.

        Raises :class:`CircuitOpenError` without invoking ``supply`` while
        the breaker is open; otherwise retries retryable failures up to the
        policy's attempt count, charging every failed attempt's elapsed time
        and backoff wait as simulated waiting.  The attempt counters count the
        ``queries`` ``supply`` carries under this one admission; backoff
        delays are drawn only when a retry is about to wait.
        """
        stats = self.statistics
        if not self.breaker.allow():
            stats.record("short_circuits")
            raise CircuitOpenError(
                f"{self.name}: circuit open, call rejected without paying the "
                f"source round trip",
                source=self.name,
                retry_after_seconds=self.breaker.seconds_until_probe(),
            )
        with self._lock:
            token = self._calls
            self._calls += 1
        delays: Optional[List[float]] = None
        last_error: Optional[SourceUnavailableError] = None
        for attempt in range(self.policy.max_attempts):
            stats.record("attempts", queries)
            try:
                result = supply()
            except SourceUnavailableError as exc:
                last_error = exc
            except BaseException:
                # A non-availability error (malformed query, crawl error, ...)
                # says nothing about the source being up: release any probe
                # slot and let it propagate without touching breaker state.
                self.breaker.abandon_probe()
                raise
            else:
                self.breaker.record_success()
                return result
            stats.record("failed_attempts", queries)
            if last_error.elapsed_seconds:
                stats.add(timeouts_paid=1, simulated_wait_seconds=last_error.elapsed_seconds)
            self.breaker.record_failure()
            if self.breaker.is_open:
                break  # tripping the breaker ends the retry loop
            if attempt >= self.policy.max_attempts - 1:
                break
            if delays is None:
                delays = self.policy.delays(token)
            stats.add(retries=queries, simulated_wait_seconds=delays[attempt])
        assert last_error is not None
        raise last_error

    def describe(self) -> Dict[str, object]:
        with self._lock:
            calls = self._calls
        description = self.breaker.describe()
        description["calls"] = calls
        return description


def guards_snapshot(
    statistics: ResilienceStatistics, guards: Sequence[SourceGuard]
) -> Dict[str, object]:
    """The statistics panel's resilience block: the counters ``guards``
    share plus each guard's breaker state.  One shape for every source kind
    (an unsharded stack has one guard, a federation one per shard)."""
    payload = statistics.snapshot()
    payload["breakers"] = [guard.describe() for guard in guards]
    return payload
