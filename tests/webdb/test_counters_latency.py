"""Tests for query accounting (counters, budgets) and latency models."""

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.exceptions import QueryBudgetExceeded
from repro.webdb.counters import Counters, QueryBudget, QueryCounter
from repro.webdb.latency import LatencyModel


class TestQueryCounter:
    def test_increment_and_reset(self):
        counter = QueryCounter()
        assert counter.increment() == 1
        assert counter.increment(4) == 5
        assert counter.count == 5
        counter.reset()
        assert counter.count == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            QueryCounter().increment(-1)

    def test_thread_safety(self):
        counter = QueryCounter()

        def work():
            for _ in range(500):
                counter.increment()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.count == 4000


@dataclass
class _Sample(Counters):
    hits: int = 0
    misses: int = 0
    wait_seconds: float = 0.0
    deepest: int = 0
    sizes: List[int] = field(default_factory=list)
    per_key: Dict[str, int] = field(default_factory=dict)

    DERIVED_AFTER = {"misses": "hit_rate"}
    ROUNDED = {"hit_rate": 2, "wait_seconds": 1}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TestCounters:
    def test_snapshot_follows_the_declaration(self):
        sample = _Sample()
        sample.add(hits=2, misses=1, wait_seconds=0.26, sizes=[3])
        sample.peak(deepest=4)
        sample.peak(deepest=2)
        sample.tally("per_key", {"a": 2})
        snapshot = sample.snapshot()
        assert list(snapshot) == [
            "hits", "misses", "hit_rate", "wait_seconds", "deepest", "sizes", "per_key",
        ]  # fmt: skip
        assert snapshot["hit_rate"] == 0.67 and snapshot["wait_seconds"] == 0.3
        assert (snapshot["deepest"], snapshot["sizes"], snapshot["per_key"]) == (4, [3], {"a": 2})
        # Containers are copies: later counting never reaches a snapshot.
        sample.add(sizes=[5])
        sample.tally("per_key", {"a": 1})
        assert (snapshot["sizes"], snapshot["per_key"]) == ([3], {"a": 2})
        assert sample.read("hits") == 2 and sample.read("hits", "deepest") == (2, 4)

    def test_reset_zeroes_every_field_together(self):
        sample = _Sample()
        sample.add(hits=1, wait_seconds=1.5, sizes=[1])
        sample.tally("per_key", {"b": 1})
        sample.peak(deepest=3)
        sample.reset()
        assert sample.snapshot() == _Sample().snapshot()

    def test_concurrent_counting_loses_no_update(self):
        sample = _Sample()
        rounds, workers = 2000, 8

        def work(worker):
            for step in range(rounds):
                sample.add(hits=1, misses=2)
                sample.record("wait_seconds", 1.0)
                sample.peak(deepest=worker * rounds + step)
                sample.tally("per_key", {"k": 1})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = rounds * workers
        assert sample.read("hits", "misses", "wait_seconds") == (total, 2 * total, float(total))
        assert sample.read("deepest") == total - 1
        assert sample.per_key == {"k": total}


class TestQueryBudget:
    def test_unlimited_budget(self):
        budget = QueryBudget(None)
        budget.charge(1000)
        assert budget.limit is None and budget.remaining is None

    def test_limited_budget_enforced(self):
        budget = QueryBudget(3)
        budget.charge(2)
        assert budget.remaining == 1
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            budget.charge(2)
        assert excinfo.value.budget == 3

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            QueryBudget(-1)


class TestLatencyModel:
    def test_disabled_model_never_delays(self):
        model = LatencyModel.disabled()
        assert model.delay(3) == [0.0, 0.0, 0.0]

    def test_accounted_model_does_not_sleep(self):
        model = LatencyModel.accounted(5.0, jitter=0.0)
        start = time.perf_counter()
        (seconds,) = model.delay()
        assert seconds == pytest.approx(5.0)
        assert time.perf_counter() - start < 0.5

    def test_sleeping_model_sleeps_once_per_batch_for_the_longest_draw(self):
        sleeping = LatencyModel(0.05, jitter=0.5, sleep=True, seed=3)
        start = time.perf_counter()
        seconds = sleeping.delay(4)
        elapsed = time.perf_counter() - start
        # The draws are the accounted model's, in batch order.
        assert seconds == LatencyModel.accounted(0.05, jitter=0.5, seed=3).delay(4)
        assert max(seconds) <= elapsed < sum(seconds)

    def test_jitter_range(self):
        model = LatencyModel.accounted(1.0, jitter=0.5, seed=3)
        draws = model.delay(200)
        assert all(0.5 <= value <= 1.5 for value in draws)
        assert max(draws) - min(draws) > 0.1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LatencyModel(mean_seconds=-1.0)
        with pytest.raises(ValueError):
            LatencyModel(mean_seconds=1.0, jitter=2.0)

    def test_deterministic_given_seed(self):
        first = LatencyModel.accounted(1.0, jitter=0.3, seed=11)
        second = LatencyModel.accounted(1.0, jitter=0.3, seed=11)
        assert first.delay(5) == second.delay(5)
