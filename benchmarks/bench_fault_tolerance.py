"""FT-CHAOS — fault-injected federations: degrade, contain, heal, replay.

PR 10 adds deterministic fault injection (:mod:`repro.webdb.faults`) and a
resilience layer (:mod:`repro.webdb.resilience`) to the federated sources.
This bench drives one sharded source through a scripted chaos schedule and
gates the robustness claims:

* **TRANSIENT** — ~20% of shard round trips fail transiently under a full
  reranking workload; seeded retries must ride over every one of them
  (>= 99% of requests complete, zero degraded pages, ``retries > 0``).
* **OUTAGE** — one shard turns into a permanent 2.5s-timeout zone while a
  scatter workload keeps arriving.  Every request must complete as a
  *degraded* partial answer naming the missing shard, and the shard's
  circuit breaker must open and short-circuit further calls, bounding the
  simulated timeout cost actually paid (the pool never re-pays the dead
  shard per query).
* **HEAL** — faults deactivate and the breaker's recovery window elapses; the
  half-open probe must close the breaker, and a fresh replay of the same
  reranking workload must be **byte-identical** to a never-faulted
  federation of the same catalog.
* **REPLAY** — the chaos run is a pure function of the fault-plan seed:
  rebuilding the federation and replaying the scatter workload must
  reproduce the exact per-shard schedule positions, fault counts, and
  per-query degradation profile.

All gates are deterministic-counter gates (no wall-clock assertions), so they
run identically under ``--bench-quick``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._tables import print_table
from repro.config import DatabaseConfig, RerankConfig
from repro.core.reranker import QueryReranker
from repro.webdb.build import build_source
from repro.webdb.faults import FaultPlan
from repro.webdb.query import SearchQuery
from repro.webdb.resilience import BreakerState, ResilienceConfig
from repro.workloads.scenarios import bluenile_scenarios_1d

SHARDS = 3
DEPTH = 10
SCATTER_QUERIES = 40
TRANSIENT_RATE = 0.2
TIMEOUT_SECONDS = 2.5
RECOVERY_SECONDS = 30.0
CHAOS_PLAN = FaultPlan(seed=2018, transient_rate=TRANSIENT_RATE)
OUTAGE_PLAN = FaultPlan(seed=2018, timeout_rate=1.0, timeout_seconds=TIMEOUT_SECONDS)
# Threshold 10: at a 20% transient rate the probability of ten consecutive
# chance failures is ~1e-7 per sequence, so over the bench's thousands of
# guard calls only the genuinely dead shard trips its breaker.
RESILIENCE = ResilienceConfig(
    max_attempts=5,
    breaker_failure_threshold=10,
    breaker_recovery_seconds=RECOVERY_SECONDS,
)


class ManualClock:
    """Breaker recovery clock the harness advances explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _make_federation(environment, fault_plan=None, clock=time.monotonic):
    """A 3-shard federation with its own shard-level result cache; the
    bench's resilience policy and the breakers' ``clock`` are fixed at
    construction, like every guard."""
    return build_source(
        environment.diamond_catalog,
        environment.diamond_schema,
        environment.diamond_ranking,
        DatabaseConfig(
            system_k=environment.system_k,
            latency_seconds=environment.latency_seconds,
            seed=environment.seed,
            shards=SHARDS,
            fault_plan=fault_plan,
        ),
        name="bluenile",
        result_cache=RerankConfig().make_result_cache(),
        resilience=RESILIENCE,
        clock=clock,
    )


def _flush_shard_caches(federation):
    """Retire every shard's cached answers so the next phase pays live
    round trips again."""
    for index in range(federation.shard_count):
        federation.invalidate_shard(index)


def _run_rerank_workload(federation, scenarios):
    """Replay the scenario workload on a fresh reranker (cold engine caches).

    Returns per-scenario outcomes: either the page signature or the error
    that ended the request."""
    reranker = QueryReranker(federation, config=RerankConfig(resilience=RESILIENCE))
    outcomes = []
    for scenario in scenarios:
        try:
            rows = reranker.rerank(scenario.query, scenario.ranking).top(DEPTH)
        except Exception as exc:  # noqa: BLE001 - failures are the measurement
            outcomes.append({"name": scenario.name, "ok": False,
                             "error": type(exc).__name__})
        else:
            outcomes.append({
                "name": scenario.name,
                "ok": True,
                "signature": tuple(row["id"] for row in rows),
            })
    return outcomes


def _scatter_queries(count):
    """Distinct price-band top-k queries for the direct scatter workload."""
    return [
        SearchQuery.build(ranges={"price": (300.0, 2000.0 + 150.0 * index)})
        for index in range(count)
    ]


def _run_scatter_workload(federation, count=SCATTER_QUERIES):
    """Issue ``count`` top-k queries straight at the scatter layer.

    This is the request stream of the outage phase: each arriving query must
    come back as a (possibly degraded) answer, not an exception."""
    outcomes = []
    for query in _scatter_queries(count):
        try:
            result = federation.search(query)
        except Exception as exc:  # noqa: BLE001 - failures are the measurement
            outcomes.append({"ok": False, "error": type(exc).__name__})
        else:
            outcomes.append({
                "ok": True,
                "degraded": result.degraded,
                "missing": list(result.missing_shards),
                "signature": tuple(row["id"] for row in result.rows),
            })
    return outcomes


def _counter_delta(before, after):
    return {
        key: after[key] - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float))
    }


def _completion_rate(outcomes):
    return sum(1 for outcome in outcomes if outcome["ok"]) / len(outcomes)


@pytest.mark.benchmark(group="fault-tolerance")
def test_chaos_differential(benchmark, environment, bench_quick):
    """Scripted chaos on a 3-shard federation: transient storm, one-shard
    outage, heal, byte-identity, deterministic replay."""
    scenarios = bluenile_scenarios_1d(environment.diamond_schema)
    scatter_count = SCATTER_QUERIES
    if bench_quick:
        scenarios = scenarios[:3]
        scatter_count = 20

    def run():
        reference = _make_federation(environment)
        clock = ManualClock()
        chaos = _make_federation(environment, fault_plan=CHAOS_PLAN, clock=clock)

        reference_outcomes = _run_rerank_workload(reference, scenarios)

        # Phase 1: ~20% transient faults; retries must absorb all of them.
        base = chaos.resilience_snapshot()
        transient_outcomes = _run_rerank_workload(chaos, scenarios)
        transient = _counter_delta(base, chaos.resilience_snapshot())

        # Phase 2: shard 2 becomes a permanent timeout zone; the scatter
        # workload keeps arriving and must keep answering degraded.
        chaos.fault_injectors()[2].set_plan(OUTAGE_PLAN)
        _flush_shard_caches(chaos)
        base = chaos.resilience_snapshot()
        outage_outcomes = _run_scatter_workload(chaos, scatter_count)
        outage = _counter_delta(base, chaos.resilience_snapshot())

        # Phase 3: heal every injector, let the breaker's recovery elapse.
        for shard_injector in chaos.fault_injectors():
            shard_injector.deactivate()
        clock.advance(RECOVERY_SECONDS + 1.0)
        _flush_shard_caches(chaos)
        base = chaos.resilience_snapshot()
        healed_outcomes = _run_rerank_workload(chaos, scenarios)
        healed = _counter_delta(base, chaos.resilience_snapshot())
        breakers = chaos.resilience_snapshot()["breakers"]

        # Phase 4: the chaos schedule is replayable — a rebuilt federation
        # driven through the same trace lands on identical fault draws and
        # per-query outcomes, byte for byte.
        def replay_profile():
            rebuilt = _make_federation(
                environment, fault_plan=CHAOS_PLAN, clock=ManualClock()
            )
            outcomes = _run_scatter_workload(rebuilt, scatter_count)
            return outcomes, [
                (shard.schedule_index, shard.fault_counts())
                for shard in rebuilt.fault_injectors()
            ]

        return {
            "reference": reference_outcomes,
            "transient": {"outcomes": transient_outcomes, "delta": transient},
            "outage": {"outcomes": outage_outcomes, "delta": outage},
            "healed": {"outcomes": healed_outcomes, "delta": healed,
                       "breakers": breakers},
            "replays": (replay_profile(), replay_profile()),
        }

    payload = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for phase in ("transient", "outage", "healed"):
        delta = payload[phase]["delta"]
        rows.append(
            f"{phase:>10s} ok={_completion_rate(payload[phase]['outcomes']):>5.0%} "
            f"retries={delta['retries']:>4d} "
            f"degraded={delta['degraded_scatters']:>3d} "
            f"timeouts={delta['timeouts_paid']:>3d} "
            f"shorted={delta['short_circuits']:>4d} "
            f"opens={delta['breaker_opens']:>2d} closes={delta['breaker_closes']:>2d}"
        )
    print_table(
        "FT-CHAOS — transient storm / shard outage / heal",
        f"{len(payload['reference'])} rerank requests + "
        f"{len(payload['outage']['outcomes'])} scatter queries per phase, "
        f"{SHARDS} shards, plan seed {CHAOS_PLAN.seed}",
        rows,
    )

    transient = payload["transient"]
    outage = payload["outage"]
    healed = payload["healed"]
    benchmark.extra_info.update(
        {
            "transient_retries": transient["delta"]["retries"],
            "transient_completion": _completion_rate(transient["outcomes"]),
            "outage_completion": _completion_rate(outage["outcomes"]),
            "outage_degraded_scatters": outage["delta"]["degraded_scatters"],
            "outage_timeouts_paid": outage["delta"]["timeouts_paid"],
            "outage_short_circuits": outage["delta"]["short_circuits"],
            "healed_matches_reference": True,
        }
    )

    # TRANSIENT gates: retries absorb the storm — no failures, no degradation.
    assert _completion_rate(transient["outcomes"]) >= 0.99, transient["outcomes"]
    assert transient["delta"]["retries"] > 0
    assert transient["delta"]["degraded_scatters"] == 0

    # OUTAGE gates: every request completes as a degraded partial answer
    # naming the dead shard, the breaker opens, and short circuits keep the
    # timeout bill bounded — the pool pays at most one breaker-threshold run
    # of timeouts plus the final attempt burst, not one timeout per query.
    assert _completion_rate(outage["outcomes"]) >= 0.99, outage["outcomes"]
    degraded = [o for o in outage["outcomes"] if o["ok"] and o["degraded"]]
    assert degraded and all("bluenile#2" in o["missing"] for o in degraded)
    assert outage["delta"]["degraded_scatters"] > 0
    assert outage["delta"]["breaker_opens"] >= 1
    assert outage["delta"]["short_circuits"] > 0
    timeout_ceiling = (
        RESILIENCE.breaker_failure_threshold + RESILIENCE.max_attempts
    )
    assert outage["delta"]["timeouts_paid"] <= timeout_ceiling, (
        f"open breaker failed to contain the outage: paid "
        f"{outage['delta']['timeouts_paid']} timeouts (ceiling {timeout_ceiling})"
    )

    # HEAL gates: the half-open probe closes the breaker, nothing degrades,
    # and the replayed workload is byte-identical to the never-faulted run.
    assert healed["delta"]["breaker_closes"] >= 1
    assert healed["delta"]["degraded_scatters"] == 0
    assert all(
        breaker["state"] == BreakerState.CLOSED for breaker in healed["breakers"]
    )
    for clean, after in zip(payload["reference"], healed["outcomes"]):
        assert after["ok"], after
        assert after["signature"] == clean["signature"], (
            f"{after['name']}: healed pages diverged from the fault-free run"
        )

    # REPLAY gate: same plan, same trace, same faults — byte for byte.
    first, second = payload["replays"]
    assert first == second, "chaos schedule is not replayable"
