"""The end-to-end metrics: their names, units, directions and bounds, and how
the rounds of one invocation become them.

``BENCHMARK.json`` at the repo root repeats this table for the driver; the
unit test keeps the two in step.

**How a value is made.**  Every time a round measures is first scaled to
reference speed by the round's speed probes (``speed.py``: the sandbox's cores
wander by tens of per cent over seconds), latency percentiles are
Harrell-Davis estimates over the round's requests (``stats.percentile``), and
a metric's reported value is the median over the rounds of the invocation,
with the quartiles beside it.  Twelve rounds of one plan, three at a time,
spread ``pages_per_s`` by 9.8 % as measured and by 3.7 % so treated, and
``first_page_ms_p90`` by 17.8 % against 3.5 %.  Taking each request's fastest
round instead was tried and is worse than either: latency noise here is fast
and large, and a minimum of three is an unstable statistic.  The external-
query counters are a pure function of trace and seed and must repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from benchmarks.request_path import speed
from benchmarks.request_path.stats import percentile, summarize


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # allowed worsening of the median, as a share of the base
    #: The bound is an absolute difference, not a share (metrics whose base
    #: is 0 on a healthy run).
    absolute: bool = False


#: The 13 end-to-end metrics, in report order.  The bounds are what the
#: sandbox supports: across 20 seeds the widest spread (inter-quartile distance
#: over median) of a latency percentile was 0.14 (``churn_mix`` and
#: ``shard_faulty``, a few dozen first pages per round), of throughput and CPU
#: 0.06, of the external-query counters 0.07, and a bound has to clear the
#: spread of any ten runs with room.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("first_page_ms_p50", "ms", "lower", 0.25),
    Metric("first_page_ms_p90", "ms", "lower", 0.25),
    Metric("next_page_ms_p50", "ms", "lower", 0.25),
    Metric("next_page_ms_p95", "ms", "lower", 0.25),
    Metric("pages_per_s", "1/s", "higher", 0.2),
    Metric("cpu_ms_per_page", "ms", "lower", 0.2),
    Metric("ext_queries_per_page", "count", "lower", 0.15),
    Metric("sim_s_per_page", "s", "lower", 0.15),
    Metric("failed_share", "share", "lower", 0.002, absolute=True),
    Metric("degraded_page_share", "share", "lower", 0.002, absolute=True),
    Metric("delta_ms_p50", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
]
BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in END_TO_END}

#: Zero or undefined on some workload by design, so the driver — which
#: divides by the median — gets them with the per-layer metrics instead.
NOT_FOR_DRIVER = ("failed_share", "degraded_page_share", "delta_ms_p50")

#: Counters that must repeat between rounds of one seed: within 0.1 %, or
#: within 1 % under a fault plan, whose schedule is consumed by racing pool
#: threads (observed: 4 queries in 1 497).  ``sim_seconds`` is left out: the
#: service adds its own wall time to the simulated seconds it reports.
DETERMINISTIC = ("pages", "ext_queries")
DETERMINISTIC_TOLERANCE = 0.001
FAULTY_TOLERANCE = 0.01

Values = Dict[str, Optional[float]]


def measure_round(raw: Dict[str, object], setup_s: float) -> Values:
    """One round's end-to-end metrics, plus — under names no metric uses —
    its request tallies and deterministic counters."""
    warm: Dict[str, float] = raw["warm"]  # type: ignore[assignment]
    probes: List[float] = raw["probe_ms"]  # type: ignore[assignment]
    # Times at reference speed: a round that ran on a slowed core is scaled
    # back by how much slower its probes ran.
    scale = speed.REFERENCE_MS * len(probes) / sum(probes)
    first: List[float] = []
    following: List[float] = []
    attempted = degraded = 0
    ext = float(warm["external_queries"])
    sim = float(warm["processing_seconds"])
    for session in raw["sessions"]:  # type: ignore[union-attr]
        attempted += len(session["statuses"])
        for index, status in enumerate(session["statuses"]):
            if status == 200:
                (following if index else first).append(session["latencies"][index] * scale)
        degraded += sum(session["degraded"])
        ext += float(session["panel"]["external_queries"])
        sim += float(session["panel"]["processing_seconds"])
    pages = len(first) + len(following)
    per_page = 1.0 / pages if pages else float("nan")
    return {
        "setup_s": setup_s * scale,
        "first_page_ms_p50": percentile(first, 50),
        "first_page_ms_p90": percentile(first, 90),
        "next_page_ms_p50": percentile(following, 50),
        "next_page_ms_p95": percentile(following, 95),
        "pages_per_s": pages / (float(raw["wall_s"]) * scale),  # type: ignore[arg-type]
        "cpu_ms_per_page": float(raw["cpu_s"]) * scale * 1000.0 * per_page,  # type: ignore[arg-type]
        # Warm-up leads are part of the run's bill: a workload that replays
        # pre-led feeds still paid for leading them.
        "ext_queries_per_page": ext * per_page,
        "sim_s_per_page": sim * per_page,
        "failed_share": (attempted - pages) / attempted if attempted else None,
        "degraded_page_share": degraded * per_page,
        "delta_ms_p50": percentile([value * scale for value in raw["delta_ms"]], 50),  # type: ignore[union-attr]
        "peak_rss_mb": float(raw["rss_mb"]),  # type: ignore[arg-type]
        "attempted": attempted,
        "failed": attempted - pages,
        "pages": pages,
        "ext_queries": ext,
        "sim_seconds": sim,
        "timed_ext_queries": ext - float(warm["external_queries"]),
        # How much slower than reference this round's core ran.
        "speed_scale": scale,
    }


def drifted(first_round: Values, later: Values, tolerance: float) -> List[str]:
    """Deterministic counters of ``later`` too far from round 1's."""
    problems = []
    for name in DETERMINISTIC:
        base, value = first_round[name], later[name]
        assert base is not None and value is not None
        if abs(value - base) > tolerance * max(abs(base), 1e-12):
            problems.append(f"{name} {value} differs from round 1's {base}")
    return problems


def combine(rounds: List[Values]) -> Dict[str, Optional[Dict[str, float]]]:
    """Per name, the median over rounds with quartiles, extremes and count."""
    return {name: summarize([values[name] for values in rounds]) for name in rounds[0]}
