"""SC-SERVE — concurrent serving tier: throughput, byte-identity, and SLO.

PR 7 puts a worker-pool execution layer (:mod:`repro.service.concurrent`)
between the HTTP boundary and :class:`QR2Service`: bounded admission,
per-session serialization, graceful drain, and a background session reaper.
This bench drives it with the open-loop Zipf workload of
:mod:`repro.workloads.loadgen` — the skewed popularity mix the shared rerank
feed (PR 5) was built for — against **really sleeping** simulated sources
(``DatabaseConfig.latency_sleep``), and enforces the serving tier's three
contracts:

* **THROUGHPUT** — at 32 workers the tier must complete the identical trace at
  >= 4x the throughput of a serialized replay (one request at a time on the
  same fresh service build).  Both sides are wall-clock measured in the same
  process, so the gate is a machine-independent ratio.
* **BYTE-IDENTITY** — every page served concurrently must be byte-identical to
  the sequential replay of the same trace: admission, scheduling, and the
  leader/follower feed races may change *who* computes a page, never *what*
  the user sees.
* **SLO** — the p99 request latency of the open-loop run must stay under the
  bench's ``SLO_P99_SECONDS`` ceiling, and the tier must
  drain cleanly afterwards (no stuck in-flight work).

A second benchmark overloads a deliberately tiny tier (2 workers, depth-6
queue) with a burst and checks the load-shedding contract: structured 429
rejections, completed sessions still byte-identical to the reference, clean
drain, and admission counters that add up.

The correctness gates always run (including in ``--bench-quick`` CI mode);
quick mode only shrinks the trace.
"""

from __future__ import annotations

import pytest

from benchmarks._tables import print_table
from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.service.app import QR2Service
from repro.service.concurrent import ConcurrentQR2Application
from repro.service.httpapp import QR2HttpApplication
from repro.service.sources import build_default_registry
from repro.workloads.loadgen import (
    ZipfWorkloadConfig,
    build_zipf_trace,
    collect_cache_metrics,
    replay_sequential,
    run_open_loop,
)

#: Simulated external round-trip latency (really slept) per search query.
#: Large enough that the I/O wait dominates GIL/scheduler noise — at 10ms the
#: measured speedup wobbled around the gate; at 20ms it sits at ~5.5x.
LATENCY_SECONDS = 0.02
#: Worker count the headline throughput gate runs at (the ISSUE's contract).
WORKERS = 32
#: Throughput must beat the serialized baseline by at least this factor.
SPEEDUP_GATE = 4.0
#: p99 latency ceiling for the open-loop run.
SLO_P99_SECONDS = 1.5
#: Offered load: the open-loop arrival window is sequential_wall / this.
OFFERED_LOAD_FACTOR = 8.0


def _make_service(workers: int, queue_depth: int, latency: float = LATENCY_SECONDS) -> QR2Service:
    """A fresh service over really-sleeping simulated sources.

    Every run builds its own registry so the shared result cache, feeds, and
    dense indexes start cold — the sequential baseline and the concurrent run
    see identical initial state."""
    registry = build_default_registry(
        diamond_config=DiamondCatalogConfig(size=300, seed=21),
        housing_config=HousingCatalogConfig(size=300, seed=22),
        database_config=DatabaseConfig(
            system_k=10,
            latency_seconds=latency,
            latency_jitter=0.0,
            latency_sleep=True,
        ),
        rerank_config=RerankConfig(),
    )
    return QR2Service(
        registry=registry,
        config=ServiceConfig(
            default_page_size=5,
            serving_workers=workers,
            admission_queue_depth=queue_depth,
            reaper_interval_seconds=30.0,
        ),
    )


@pytest.mark.benchmark(group="serving-concurrency")
def test_serving_throughput_byte_identity_and_slo(benchmark, bench_quick):
    """32 workers on the Zipf mix: >= 4x serialized throughput, byte-identical
    pages, p99 under the SLO, clean drain."""
    latency = LATENCY_SECONDS
    config = ZipfWorkloadConfig(
        distinct_queries=24 if bench_quick else 32,
        sessions=64 if bench_quick else 128,
        pages_per_session=2,
        page_size=5,
        zipf_exponent=1.1,
        seed=2026,
    )
    trace = build_zipf_trace(config)
    depth = trace.total_requests + 8  # throughput run must shed nothing

    def run():
        seq_app = QR2HttpApplication(_make_service(workers=1, queue_depth=depth, latency=latency))
        sequential = replay_sequential(seq_app, trace)
        seq_app.service.close()

        conc_app = ConcurrentQR2Application(
            _make_service(workers=WORKERS, queue_depth=depth, latency=latency)
        )
        window = sequential.wall_seconds / OFFERED_LOAD_FACTOR
        concurrent = run_open_loop(conc_app, trace.with_arrival_window(window))
        metrics = collect_cache_metrics(conc_app.service)
        drained = conc_app.drain(timeout=60.0)
        tier = conc_app.tier.snapshot()
        conc_app.close()
        return {
            "sequential": sequential,
            "concurrent": concurrent,
            "slo_p99_seconds": SLO_P99_SECONDS,
            "arrival_window": window,
            "drained": drained,
            "tier": tier,
            "metrics": metrics,
        }

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    sequential = payload["sequential"]
    concurrent = payload["concurrent"]
    speedup = sequential.wall_seconds / concurrent.wall_seconds
    percentiles = concurrent.latency_percentiles()
    seq_percentiles = sequential.latency_percentiles()

    rows = [
        f"{'mode':>12s} {'wall_s':>8s} {'rps':>8s} {'p50_ms':>8s} {'p95_ms':>8s} "
        f"{'p99_ms':>8s} {'rejects':>8s}",
        f"{'sequential':>12s} {sequential.wall_seconds:>8.2f} "
        f"{sequential.throughput_rps:>8.1f} {seq_percentiles['p50'] * 1e3:>8.1f} "
        f"{seq_percentiles['p95'] * 1e3:>8.1f} {seq_percentiles['p99'] * 1e3:>8.1f} "
        f"{sequential.rejections:>8d}",
        f"{'32 workers':>12s} {concurrent.wall_seconds:>8.2f} "
        f"{concurrent.throughput_rps:>8.1f} {percentiles['p50'] * 1e3:>8.1f} "
        f"{percentiles['p95'] * 1e3:>8.1f} {percentiles['p99'] * 1e3:>8.1f} "
        f"{concurrent.rejections:>8d}",
        f"{'speedup':>12s} {speedup:>8.2f}x  (gate >= {SPEEDUP_GATE}x, "
        f"SLO p99 <= {payload['slo_p99_seconds']}s)",
    ]
    print_table(
        "SC-SERVE — concurrent serving vs serialized baseline",
        f"{len(trace.scripts)} Zipf sessions over {trace.distinct_queries} distinct "
        f"queries, {trace.total_requests} requests, {latency * 1e3:.0f}ms "
        f"slept per external query",
        rows,
    )

    feed_totals = {
        name: entry.get("feed", {}) for name, entry in payload["metrics"].items()
    }
    benchmark.extra_info.update(
        {
            "sessions": len(trace.scripts),
            "distinct_queries": trace.distinct_queries,
            "total_requests": trace.total_requests,
            "latency_seconds": latency,
            "workers": WORKERS,
            "sequential_wall_seconds": round(sequential.wall_seconds, 3),
            "concurrent_wall_seconds": round(concurrent.wall_seconds, 3),
            "speedup": round(speedup, 2),
            "throughput_rps": round(concurrent.throughput_rps, 1),
            "p50_seconds": round(percentiles["p50"], 4),
            "p95_seconds": round(percentiles["p95"], 4),
            "p99_seconds": round(percentiles["p99"], 4),
            "slo_p99_seconds": payload["slo_p99_seconds"],
            "rejection_rate": concurrent.rejection_rate,
            "max_in_flight": payload["tier"]["max_in_flight"],
            "feed_metrics": feed_totals,
        }
    )

    # Correctness gates: always enforced (including --bench-quick CI).
    assert concurrent.completed_requests == trace.total_requests, (
        f"concurrent run dropped requests: {concurrent.report()}"
    )
    assert concurrent.rejections == 0, "throughput run must not shed load"
    assert concurrent.pages_signature() == sequential.pages_signature(), (
        "concurrent pages diverged from the sequential replay of the same trace"
    )
    assert speedup >= SPEEDUP_GATE, (
        f"throughput gate failed: {speedup:.2f}x < {SPEEDUP_GATE}x "
        f"(seq {sequential.wall_seconds:.2f}s vs conc {concurrent.wall_seconds:.2f}s)"
    )
    assert percentiles["p99"] <= payload["slo_p99_seconds"], (
        f"p99 {percentiles['p99']:.3f}s over the {payload['slo_p99_seconds']}s SLO"
    )
    assert payload["drained"], "tier failed to drain after the run"
    assert payload["tier"]["in_flight"] == 0


@pytest.mark.benchmark(group="serving-concurrency")
def test_admission_control_sheds_load_and_recovers(benchmark, bench_quick):
    """A burst against a tiny tier must produce structured 429s, keep the
    accepted sessions byte-identical to the reference, and drain cleanly."""
    sessions = 16 if bench_quick else 32
    config = ZipfWorkloadConfig(
        distinct_queries=8,
        sessions=sessions,
        pages_per_session=1,
        page_size=5,
        seed=907,
    )
    trace = build_zipf_trace(config)  # all arrivals at t=0: a pure burst

    def run():
        ref_app = QR2HttpApplication(
            _make_service(workers=1, queue_depth=trace.total_requests + 8, latency=0.004)
        )
        reference = replay_sequential(ref_app, trace)
        ref_app.service.close()

        burst_app = ConcurrentQR2Application(
            _make_service(workers=2, queue_depth=6, latency=0.004)
        )
        burst = run_open_loop(burst_app, trace)
        tier = burst_app.tier.snapshot()
        drained = burst_app.drain(timeout=60.0)
        burst_app.close()
        return {"reference": reference, "burst": burst, "tier": tier, "drained": drained}

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = payload["reference"]
    burst = payload["burst"]
    tier = payload["tier"]

    print_table(
        "SC-SERVE-429 — admission control under burst (2 workers, depth 6)",
        f"{len(trace.scripts)} sessions arriving at once, {trace.total_requests} planned requests",
        [
            f"issued={len(burst.latencies)} completed={burst.completed_requests} "
            f"rejected={burst.rejections} ({burst.rejection_rate:.0%}) "
            f"aborted={burst.aborted_requests}",
            f"tier: completed={tier['completed']} rejected={tier['rejected']} "
            f"max_in_flight={tier['max_in_flight']} drained={payload['drained']}",
        ],
    )
    benchmark.extra_info.update(
        {
            "burst_sessions": len(trace.scripts),
            "burst_rejections": burst.rejections,
            "burst_rejection_rate": round(burst.rejection_rate, 4),
            "burst_completed": burst.completed_requests,
            "burst_max_in_flight": tier["max_in_flight"],
        }
    )

    # Correctness gates: always enforced.
    assert burst.rejections > 0, "burst produced no 429s: admission control inert"
    assert burst.completed_requests > 0, "admission control shed everything"
    assert tier["rejected"] == burst.rejections
    assert tier["max_in_flight"] <= 6, "admission queue depth exceeded"
    for key, page in burst.pages.items():
        assert page == reference.pages[key], (
            f"accepted page {key} diverged from the sequential reference under load shedding"
        )
    assert payload["drained"], "tier failed to drain after the burst"
    assert tier["in_flight"] == 0
