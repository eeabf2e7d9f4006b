"""Tests for retries, circuit breakers, and the source guard."""

import threading

import pytest

from repro.core.parallel import QueryEngine
from repro.core.reranker import QueryReranker
from repro.exceptions import (
    CircuitOpenError,
    SourceTimeoutError,
    SourceUnavailableError,
)
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.faults import FaultPlan
from repro.webdb.federation import FederatedInterface
from repro.webdb.interface import Outcome, SearchResult
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from repro.webdb.resilience import (
    BreakerState,
    CircuitBreaker,
    ResilienceStatistics,
    RetryPolicy,
    SourceGuard,
)
from repro.webdb.stack import SourceStack

from tests.conftest import set_guard_policy


QUERY = SearchQuery.build(ranges={"price": (300.0, 5000.0)})
RESULT = SearchResult(query=QUERY, rows=(), outcome=Outcome.UNDERFLOW, system_k=10)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_guard(
    failure_threshold=2,
    recovery_seconds=30.0,
    max_attempts=3,
    clock=None,
):
    clock = clock or FakeClock()
    statistics = ResilienceStatistics()
    guard = SourceGuard(
        name="shard#0",
        policy=RetryPolicy(max_attempts=max_attempts, base_seconds=0.01, seed=5),
        breaker=CircuitBreaker(
            failure_threshold=failure_threshold,
            recovery_seconds=recovery_seconds,
            clock=clock,
            name="shard#0",
        ),
        statistics=statistics,
    )
    return guard, clock, statistics


class Flaky:
    """Callable failing the first ``failures`` calls, then succeeding."""

    def __init__(self, failures, error=None):
        self.failures = failures
        self.calls = 0
        self.error = error or SourceUnavailableError("transient")

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return RESULT


class TestRetryPolicy:
    def test_delays_are_deterministic_per_token(self):
        policy = RetryPolicy(max_attempts=4, base_seconds=0.05, seed=3)
        assert policy.delays(0) == policy.delays(0)
        assert policy.delays(0) != policy.delays(1)

    def test_delays_respect_base_and_cap(self):
        policy = RetryPolicy(
            max_attempts=8, base_seconds=0.5, cap_seconds=1.0, seed=1
        )
        for delay in policy.delays(0):
            assert 0.5 <= delay <= 1.0

    def test_single_attempt_has_no_delays(self):
        assert RetryPolicy(max_attempts=1).delays(0) == []


class TestCircuitBreaker:
    def test_full_automaton_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, recovery_seconds=10.0, clock=clock)
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        transitions = breaker.transitions()
        assert transitions == {"opened": 1, "half_opened": 1, "closed": 1}

    def test_failed_probe_reopens_and_restarts_timer(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert breaker.seconds_until_probe() == pytest.approx(5.0)

    def test_abandoned_probe_frees_the_slot(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.abandon_probe()
        # The state did not settle, but the next probe may proceed.
        assert breaker.allow()


class TestSourceGuard:
    def test_retries_until_success(self):
        guard, _, stats = make_guard(failure_threshold=5, max_attempts=3)
        flaky = Flaky(failures=2)
        assert guard.call(flaky) is RESULT
        snapshot = stats.snapshot()
        assert snapshot["attempts"] == 3
        assert snapshot["retries"] == 2
        assert snapshot["failed_attempts"] == 2

    def test_exhausted_attempts_raise_last_error(self):
        guard, _, _ = make_guard(failure_threshold=10, max_attempts=2)
        with pytest.raises(SourceUnavailableError):
            guard.call(Flaky(failures=5))

    def test_breaker_opens_then_short_circuits(self):
        guard, _, stats = make_guard(failure_threshold=2, max_attempts=2)
        with pytest.raises(SourceUnavailableError):
            guard.call(Flaky(failures=5))
        supply = Flaky(failures=5)
        with pytest.raises(CircuitOpenError) as excinfo:
            guard.call(supply)
        # The open breaker rejected the call without paying a round trip.
        assert supply.calls == 0
        assert excinfo.value.retry_after_seconds == pytest.approx(30.0)
        assert stats.snapshot()["short_circuits"] == 1

    def test_breaker_heals_through_half_open_probe(self):
        guard, clock, stats = make_guard(
            failure_threshold=2, recovery_seconds=10.0, max_attempts=2
        )
        with pytest.raises(SourceUnavailableError):
            guard.call(Flaky(failures=5))
        clock.advance(10.0)
        assert guard.call(Flaky(failures=0)) is RESULT
        assert guard.breaker.state == BreakerState.CLOSED
        snapshot = stats.snapshot()
        assert snapshot["breaker_opens"] == 1
        assert snapshot["breaker_half_opens"] == 1
        assert snapshot["breaker_closes"] == 1

    def test_concurrent_transitions_are_counted_once(self):
        """Call A is admitted while the breaker is closed; while it is in
        flight two failing calls open the breaker; then A succeeds and closes
        it.  Each transition reaches the shared counters exactly once."""
        guard, _, stats = make_guard(failure_threshold=2, max_attempts=1)
        admitted, release = threading.Event(), threading.Event()
        answers = []

        def slow_success():
            admitted.set()
            release.wait(5.0)
            return RESULT

        caller = threading.Thread(target=lambda: answers.append(guard.call(slow_success)))
        caller.start()
        assert admitted.wait(5.0)
        for _ in range(2):
            with pytest.raises(SourceUnavailableError):
                guard.call(Flaky(failures=1))
        assert guard.breaker.state == BreakerState.OPEN
        release.set()
        caller.join(5.0)
        assert answers == [RESULT]
        assert guard.breaker.transitions() == {"opened": 1, "half_opened": 0, "closed": 1}
        snapshot = stats.snapshot()
        assert (snapshot["breaker_opens"], snapshot["breaker_closes"]) == (1, 1)

    def test_timeout_cost_charges_the_deadline(self):
        """Every timed-out attempt's elapsed time is charged as simulated
        waiting, on top of the backoff between attempts."""
        guard, _, stats = make_guard(failure_threshold=10, max_attempts=3)
        with pytest.raises(SourceTimeoutError):
            guard.call(
                Flaky(
                    failures=5,
                    error=SourceTimeoutError("slow shard", elapsed_seconds=0.6),
                )
            )
        snapshot = stats.snapshot()
        assert snapshot["timeouts_paid"] == 3
        assert snapshot["simulated_wait_seconds"] >= 1.8

    def test_non_availability_error_passes_through_untouched(self):
        guard, _, _ = make_guard(failure_threshold=1, max_attempts=3)

        def supply():
            raise KeyError("bug, not an outage")

        with pytest.raises(KeyError):
            guard.call(supply)
        # Programming errors never trip the breaker.
        assert guard.breaker.state == BreakerState.CLOSED


class TestResilientInterface:
    """The source stack is the resilient interface of a single source."""

    def test_retries_ride_over_scheduled_transients(self, bluenile_db, monkeypatch):
        # ~30% transient faults; six attempts per query almost always find
        # a clean draw, so every query answers and the counters show retries.
        set_guard_policy(monkeypatch, max_attempts=6, failure_threshold=50)
        resilient = SourceStack(bluenile_db, fault_plan=FaultPlan(seed=13, transient_rate=0.3))
        for i in range(40):
            query = SearchQuery.build(ranges={"price": (300.0, 1000.0 + i)})
            result = resilient.search(query)
            assert result.rows is not None
        snapshot = resilient.resilience_statistics.snapshot()
        assert snapshot["retries"] > 0
        assert snapshot["attempts"] >= 40
        assert resilient.statistics.queries == 40

    def test_snapshot_shape_matches_federation(
        self, bluenile_db, diamond_catalog, diamond_schema_fixture, monkeypatch
    ):
        plan = FaultPlan(seed=13, transient_rate=0.1)
        set_guard_policy(monkeypatch, max_attempts=4)
        unsharded = SourceStack(bluenile_db, fault_plan=plan)
        ranking = FeaturedScoreRanking("price", boost_weight=2500.0)
        federation = FederatedInterface(
            [
                HiddenWebDatabase(
                    diamond_catalog, diamond_schema_fixture, ranking,
                    system_k=10, name="parity#0",
                )
            ],
            ranking,
            name="parity",
            fault_plans=[plan],
        )
        for source in (unsharded, federation):
            source.search(QUERY)
        snapshot = unsharded.resilience_snapshot()
        assert snapshot.keys() == federation.resilience_snapshot().keys()
        assert "retries" in snapshot
        assert len(snapshot["breakers"]) == 1
        assert snapshot["breakers"][0].keys() == (
            federation.resilience_snapshot()["breakers"][0].keys()
        )
        assert snapshot["breakers"][0]["state"] == BreakerState.CLOSED
        # The reranker reads the same dict, whatever the source kind.
        for source in (unsharded, federation):
            assert (
                QueryReranker(source).resilience_snapshot().keys() == snapshot.keys()
            )

    def test_proxies_inner_attributes(self, bluenile_db):
        resilient = SourceStack(bluenile_db)
        assert resilient.name == bluenile_db.name
        assert resilient.system_k == bluenile_db.system_k
        assert resilient.guard.name == bluenile_db.name

    def test_noop_plan_batches_a_group_under_one_admission(
        self, bluenile_db, monkeypatch
    ):
        """A guard-wrapped source under a no-op fault plan issues a group of
        N as one ``HiddenWebDatabase.search_many`` call, one guard call
        (whose attempts count the N queries it carried)."""
        batches = []
        original = type(bluenile_db).search_many

        def spying(self, queries):
            batches.append(len(list(queries)))
            return original(self, queries)

        monkeypatch.setattr(type(bluenile_db), "search_many", spying)
        stack = SourceStack(bluenile_db, fault_plan=FaultPlan(seed=3))
        engine = QueryEngine(stack)
        group = [
            SearchQuery.build(ranges={"price": (300.0, 1000.0 + i)}) for i in range(5)
        ]
        assert len(engine.search_group(group)) == 5
        assert batches == [5]
        assert stack.guard.describe()["calls"] == 1
        assert stack.resilience_statistics.snapshot()["attempts"] == 5
        assert stack.statistics.queries == 5
        assert engine.budget.used == 5
