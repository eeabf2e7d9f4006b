"""SC-DENSE — the interval dense-region index vs the seed's linear scan.

PR 2 made the *server* side sublinear; PR 4 does the same for the last linear
client-side hot path: the on-the-fly dense-region index that answers Get-Next
probes locally once a region has been crawled.  Two gates:

* **lookup speedup** (full runs only): on a region-heavy index — the state a
  long-lived 1D-RERANK deployment accumulates — the interval implementation
  must answer the probe workload at least 5× faster at the median than the
  naive linear reference, with identical answers on every probe both cover;
* **differential** (always, including ``--bench-quick`` CI smoke runs): an
  end-to-end region-heavy 1D-RERANK workload must produce byte-identical
  pages under both implementations, with the interval index issuing **no
  more** external queries than the naive one (region coalescing can only
  remove crawls, never add them).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import pytest

from benchmarks._tables import print_table
from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import SingleAttributeRanking
from repro.core.regions import HyperRectangle
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema
from repro.webdb.query import RangePredicate, SearchQuery
from repro.workloads.experiments import ExperimentEnvironment
from tests.reference import NaiveDenseRegionIndex, NaiveIndexReranker

FULL_REGIONS = 600
QUICK_REGIONS = 120
FULL_PROBES = 400
QUICK_PROBES = 120
ROWS_PER_REGION = 8
TIMING_ROUNDS = 5
MIN_MEDIAN_SPEEDUP = 5.0

PRICE_DOMAIN = (200.0, 25000.0)


def _build_region_set(
    region_count: int, seed: int = 11
) -> Tuple[List[Tuple[HyperRectangle, List[dict]]], List[dict]]:
    """``region_count`` 1D price regions separated by real gaps (so both
    implementations hold the same region count — this bench isolates lookup
    speed, the differential bench covers coalescing), each with its tuples."""
    rng = random.Random(seed)
    lo, hi = PRICE_DOMAIN
    slot = (hi - lo) / region_count
    regions: List[Tuple[HyperRectangle, List[dict]]] = []
    universe: List[dict] = []
    for i in range(region_count):
        lower = lo + i * slot
        upper = lower + slot * 0.7  # 30 % gap to the next region
        rows = [
            {
                "id": f"r{i}-{j}",
                "price": round(rng.uniform(lower, upper), 2),
                "carat": round(rng.uniform(0.2, 5.0), 2),
            }
            for j in range(ROWS_PER_REGION)
        ]
        universe.extend(rows)
        regions.append((HyperRectangle.from_bounds({"price": (lower, upper)}), rows))
    return regions, universe


def _build_probe_workload(
    regions, probe_count: int, seed: int = 29
) -> List[Tuple[RangePredicate, Optional[SearchQuery]]]:
    """The probe mix a 1D-RERANK session issues against the index: covered
    sub-intervals and point queries (hits), plus spanning probes that fall in
    the gaps (misses — the common case early in a session)."""
    rng = random.Random(seed)
    base = SearchQuery.build(ranges={"carat": (0.5, 4.5)})
    probes: List[Tuple[RangePredicate, Optional[SearchQuery]]] = []
    for _ in range(probe_count):
        box, rows = regions[rng.randrange(len(regions))]
        side = box.side("price")
        roll = rng.random()
        if roll < 0.45:
            # Covered sub-interval of one region.
            a = rng.uniform(side.lower, side.upper)
            b = rng.uniform(side.lower, side.upper)
            lower, upper = min(a, b), max(a, b)
            probes.append((RangePredicate("price", lower, upper), base if rng.random() < 0.5 else None))
        elif roll < 0.70:
            # Point probe at a real tuple value (the value-group lookup).
            value = float(rng.choice(rows)["price"])
            probes.append((RangePredicate("price", value, value), None))
        else:
            # Spanning probe reaching into the inter-region gap: a miss.
            probes.append(
                (RangePredicate("price", side.lower, side.upper + (side.upper - side.lower)), None)
            )
    return probes


def _run_probes(index: DenseRegionIndex, probes) -> Tuple[List[Optional[list]], List[float]]:
    answers: List[Optional[list]] = []
    timings: List[float] = []
    for predicate, base_query in probes:
        started = time.perf_counter()
        rows = index.lookup_interval("price", predicate, base_query)
        timings.append(time.perf_counter() - started)
        answers.append(rows)
    return answers, timings


def _normalize(rows: Optional[list]) -> Optional[list]:
    if rows is None:
        return None
    return sorted((dict(row) for row in rows), key=lambda row: str(row["id"]))


@pytest.mark.benchmark(group="dense-index")
def test_dense_lookup_speedup(benchmark, bench_quick):
    """≥5× median lookup speedup on a region-heavy index, identical answers
    (speedup asserted on full runs; answer equality asserted always)."""
    region_count = QUICK_REGIONS if bench_quick else FULL_REGIONS
    probe_count = QUICK_PROBES if bench_quick else FULL_PROBES
    regions, _ = _build_region_set(region_count)
    probes = _build_probe_workload(regions, probe_count)
    schema = diamond_schema(DiamondCatalogConfig(size=200, seed=1))

    def build(index_class):
        index = index_class(schema)
        for box, rows in regions:
            index.add_region(box, rows)
        return index

    def run():
        naive = build(NaiveDenseRegionIndex)
        interval = build(DenseRegionIndex)
        assert naive.region_count() == interval.region_count() == region_count
        naive_rounds: List[List[float]] = []
        interval_rounds: List[List[float]] = []
        naive_answers = interval_answers = None
        for _ in range(TIMING_ROUNDS):
            naive_answers, naive_timings = _run_probes(naive, probes)
            interval_answers, interval_timings = _run_probes(interval, probes)
            naive_rounds.append(naive_timings)
            interval_rounds.append(interval_timings)
        return naive_answers, interval_answers, naive_rounds, interval_rounds

    naive_answers, interval_answers, naive_rounds, interval_rounds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    divergences = sum(
        1
        for expected, actual in zip(naive_answers, interval_answers)
        if _normalize(expected) != _normalize(actual)
    )
    assert divergences == 0, f"{divergences} probes diverged between implementations"

    # Median per-probe latency over the best round for each implementation.
    naive_median = min(statistics.median(timings) for timings in naive_rounds)
    interval_median = min(statistics.median(timings) for timings in interval_rounds)
    median_speedup = naive_median / interval_median if interval_median > 0 else float("inf")

    benchmark.extra_info.update(
        {
            "regions": region_count,
            "probes": probe_count,
            "naive_median_us": round(naive_median * 1e6, 2),
            "interval_median_us": round(interval_median * 1e6, 2),
            "median_speedup": round(median_speedup, 2),
            "quick_mode": bench_quick,
        }
    )
    print_table(
        "SC-DENSE — naive linear scan vs interval dense-region index",
        f"{region_count} regions, {probe_count} probes, 0 divergences",
        [
            f"{'naive median':>16s} {naive_median * 1e6:>10.2f} us/lookup",
            f"{'interval median':>16s} {interval_median * 1e6:>10.2f} us/lookup",
            f"{'median speedup':>16s} {median_speedup:>10.2f} x",
        ],
    )
    if not bench_quick:
        assert median_speedup >= MIN_MEDIAN_SPEEDUP, (
            f"median lookup speedup {median_speedup:.2f}x below the "
            f"{MIN_MEDIAN_SPEEDUP:.0f}x floor"
        )


def run_dense_index_differential(
    environment: ExperimentEnvironment,
    repetitions: int = 3,
    depth: int = 10,
) -> Dict[str, object]:
    """Run a region-heavy 1D-RERANK workload under the production dense
    index and under its linear reference oracle, and compare them.

    The workload replays the on-the-fly indexing scenario under several
    shifted/nested ``length_width_ratio`` windows with an eager density
    threshold, so the shared reranker accumulates many overlapping and
    touching dense regions — exactly the state in which the seed's linear
    index degrades and the interval index coalesces.  The interval
    implementation must return byte-identical pages while issuing no more
    external queries than the naive reference (coalesced coverage can only
    remove crawls, never add them).
    """
    ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
    # Overlapping and nested windows around the big = 1.0 value cluster: each
    # window probes slightly different intervals, building up regions whose
    # crawled dense intervals overlap (e.g. [0.995, 1.0] and [0.99, 1.0]).
    windows = [
        (0.995, 1.6),
        (0.99, 1.2),
        (0.995, 1.3),
        (1.05, 1.5),
        (1.15, 1.8),
        (1.0, 1.45),
    ]
    queries = [
        SearchQuery.build(ranges={"length_width_ratio": window}) for window in windows
    ]
    # The eager density threshold is what makes the workload region-heavy
    # at benchmark catalog scales: narrow probe intervals are crawled and
    # indexed instead of being halved further.  The rerank feed is
    # ablated so repeated windows exercise the dense index, not a replay.
    config = replace(
        environment.rerank_config, dense_ratio_threshold=0.02, enable_rerank_feed=False
    )
    payload: Dict[str, object] = {"windows": windows, "repetitions": repetitions}
    for impl, reranker_class in (("naive", NaiveIndexReranker), ("interval", QueryReranker)):
        reranker = reranker_class(environment.database("bluenile"), config=config)
        costs: List[int] = []
        pages: List[List[Dict[str, object]]] = []
        for _ in range(repetitions):
            for query in queries:
                stream = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
                rows = stream.top(depth)
                costs.append(stream.statistics.external_queries)
                pages.append([dict(row) for row in rows])
        payload[impl] = {
            "costs": costs,
            "total": sum(costs),
            "pages": pages,
            "index": reranker.dense_index.describe(),
        }
        assert payload[impl]["index"]["impl"] == impl  # type: ignore[index]
    payload["pages_match"] = payload["naive"]["pages"] == payload["interval"]["pages"]  # type: ignore[index]
    return payload


@pytest.mark.benchmark(group="dense-index")
def test_dense_rerank_differential(benchmark, environment, depth):
    """End-to-end 1D-RERANK under both implementations: byte-identical pages,
    and the interval index must not issue more external queries."""

    def run():
        return run_dense_index_differential(environment, repetitions=2, depth=depth)

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    naive = payload["naive"]
    interval = payload["interval"]
    benchmark.extra_info.update(
        {
            "naive_total_queries": naive["total"],
            "interval_total_queries": interval["total"],
            "naive_regions": naive["index"]["regions"],
            "interval_regions": interval["index"]["regions"],
            "interval_coalesced": interval["index"]["coalesced"],
        }
    )
    requests = len(naive["costs"])
    print_table(
        "SC-DENSE-DIFF [bluenile / 1D-RERANK] — naive vs interval index",
        f"{requests} requests over {len(payload['windows'])} nested windows; "
        f"interval index coalesced {interval['index']['coalesced']} merges "
        f"({interval['index']['regions']} regions vs {naive['index']['regions']})",
        [
            f"{'naive':>12s} {naive['total']:>7d} external queries",
            f"{'interval':>12s} {interval['total']:>7d} external queries",
        ],
    )
    assert payload["pages_match"], "reranked pages diverged between implementations"
    assert interval["total"] <= naive["total"], (
        f"interval index issued more external queries "
        f"({interval['total']} > {naive['total']})"
    )
