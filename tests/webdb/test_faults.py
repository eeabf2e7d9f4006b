"""Tests for the deterministic fault-injection schedule and injector."""

import pytest

from repro.exceptions import SourceTimeoutError, SourceUnavailableError
from repro.webdb.faults import FaultInjector, FaultKind, FaultPlan
from repro.webdb.query import SearchQuery
from repro.webdb.stack import SourceStack


QUERY = SearchQuery.build(ranges={"price": (300.0, 5000.0)})


def queries(count):
    return [
        SearchQuery.build(ranges={"price": (300.0, 1000.0 + 10.0 * i)})
        for i in range(count)
    ]


class TestFaultPlan:
    def test_fault_at_is_pure(self):
        plan = FaultPlan(seed=7, transient_rate=0.3, timeout_rate=0.2, slow_rate=0.1)
        for index in range(200):
            assert plan.fault_at(index) == plan.fault_at(index)

    def test_equal_plans_share_schedules(self):
        a = FaultPlan(seed=11, transient_rate=0.25, timeout_rate=0.25)
        b = FaultPlan(seed=11, transient_rate=0.25, timeout_rate=0.25)
        assert [a.fault_at(i) for i in range(100)] == [
            b.fault_at(i) for i in range(100)
        ]

    def test_different_seeds_diverge(self):
        a = FaultPlan(seed=1, transient_rate=0.5)
        b = FaultPlan(seed=2, transient_rate=0.5)
        assert [a.fault_at(i)[0] for i in range(100)] != [
            b.fault_at(i)[0] for i in range(100)
        ]

    def test_rates_are_respected_approximately(self):
        plan = FaultPlan(seed=3, transient_rate=0.2)
        kinds = [plan.fault_at(i)[0] for i in range(2000)]
        fraction = kinds.count(FaultKind.TRANSIENT) / len(kinds)
        assert 0.15 < fraction < 0.25

    def test_fail_window_beats_every_draw(self):
        plan = FaultPlan(seed=5, transient_rate=0.5, fail_from=10, fail_until=20)
        for index in range(10):
            assert plan.fault_at(10 + index)[0] is FaultKind.FAIL_STOP
        assert plan.fault_at(9)[0] is not FaultKind.FAIL_STOP
        assert plan.fault_at(20)[0] is not FaultKind.FAIL_STOP

    def test_open_ended_fail_window_never_heals(self):
        plan = FaultPlan(seed=5, fail_from=0)
        assert plan.fault_at(10_000)[0] is FaultKind.FAIL_STOP

    def test_noop_detection(self):
        assert FaultPlan().is_noop
        assert not FaultPlan(transient_rate=0.1).is_noop
        assert not FaultPlan(fail_from=0).is_noop

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=1.5)


class TestFaultInjector:
    def _drive(self, injector, count):
        """Issue ``count`` queries, recording per-query outcomes."""
        outcomes = []
        for query in queries(count):
            try:
                result = injector.search(query)
            except SourceUnavailableError as exc:
                outcomes.append(type(exc).__name__)
            else:
                outcomes.append(("ok", result.elapsed_seconds))
        return outcomes

    def test_replay_is_deterministic(self, bluenile_db):
        plan = FaultPlan(seed=21, transient_rate=0.2, timeout_rate=0.1, slow_rate=0.1)
        first = self._drive(FaultInjector(bluenile_db, plan), 120)
        second = self._drive(FaultInjector(bluenile_db, plan), 120)
        assert first == second
        assert any(outcome == "SourceUnavailableError" for outcome in first)
        assert any(outcome == "SourceTimeoutError" for outcome in first)

    def test_timeout_carries_simulated_cost(self, bluenile_db):
        injector = FaultInjector(
            bluenile_db, FaultPlan(seed=1, timeout_seconds=2.5, fail_from=0)
        )
        with pytest.raises(SourceTimeoutError) as excinfo:
            injector.search(QUERY)
        assert excinfo.value.elapsed_seconds == pytest.approx(2.5)

    def test_deactivate_freezes_the_schedule(self, bluenile_db):
        plan = FaultPlan(seed=9, transient_rate=0.5)
        injector = FaultInjector(bluenile_db, plan)
        self._drive(injector, 10)
        frozen = injector.schedule_index
        injector.deactivate()
        self._drive(injector, 10)
        assert injector.schedule_index == frozen
        injector.activate()
        self._drive(injector, 5)
        assert injector.schedule_index == frozen + 5

    def test_set_plan_rewinds_and_reactivates(self, bluenile_db):
        injector = FaultInjector(bluenile_db, FaultPlan(seed=9, transient_rate=0.5))
        self._drive(injector, 10)
        injector.deactivate()
        injector.set_plan(FaultPlan(seed=9))
        assert injector.active
        assert injector.schedule_index == 0
        assert all(kind == ("ok",) or kind[0] == "ok" for kind in self._drive(injector, 5))

    def test_fault_counts_accumulate(self, bluenile_db):
        injector = FaultInjector(
            bluenile_db, FaultPlan(seed=2, transient_rate=0.3, timeout_rate=0.2)
        )
        self._drive(injector, 100)
        counts = injector.fault_counts()
        assert counts["transient"] > 0
        assert counts["timeout"] > 0
        assert sum(counts.values()) <= 100

    def test_noop_or_inactive_injector_does_not_perturb(self, bluenile_db):
        assert not FaultInjector(bluenile_db, FaultPlan()).perturbs
        injector = FaultInjector(bluenile_db, FaultPlan(seed=4, transient_rate=0.5))
        assert injector.perturbs
        injector.deactivate()
        assert not injector.perturbs

    def test_stack_exposes_its_injector(self, bluenile_db):
        stack = SourceStack(bluenile_db, fault_plan=FaultPlan(seed=4, slow_rate=1.0))
        assert isinstance(stack.injector, FaultInjector)
        stack.search(QUERY)
        assert stack.injector.schedule_index == 1
        assert stack.injector.fault_counts()["slow"] == 1
        assert SourceStack(bluenile_db).injector is None
