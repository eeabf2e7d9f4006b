"""INTERFACE-THROUGHPUT — the vectorized columnar engine vs the naive scan.

PR 1 removed *redundant* external queries with the shared result cache; this
bench measures the next multiplier: the per-query cost of the queries that do
reach the hidden database.  Two :class:`HiddenWebDatabase` instances are
built over the same 10⁴-tuple catalog — one on the seed's ``naive``
row-at-a-time scan (the ``tests/reference`` oracle), one on the production
``indexed`` columnar engine — and serve an
identical mixed workload (narrow/medium/broad ranges, point lookups,
IN filters, and conjunctive combinations, roughly the shape the get-next
loops and the crawler produce).

Two gates:

* **divergence** (always, including ``--bench-quick`` CI smoke runs): every
  query must return byte-identical rows and the same outcome on both
  engines;
* **speedup** (full runs only): the indexed engine must be at least 5×
  faster at the workload median.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

import pytest

from benchmarks._tables import backend_metadata, print_table
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from tests.reference import NaiveScanDatabase

CATALOG_SIZE = 10_000
SYSTEM_K = 20
FULL_QUERIES = 240
QUICK_QUERIES = 48
MIN_MEDIAN_SPEEDUP = 5.0

MAKES = ("acme", "globex", "initech", "umbrella", "hooli", "vehement")
REGIONS = ("north", "south", "east", "west")


def build_catalog(seed: int = 13) -> ColumnTable:
    rng = random.Random(seed)
    rows = [
        {
            "id": f"sku-{i:05d}",
            "price": round(rng.uniform(10.0, 5000.0), 2),
            "weight": round(rng.uniform(0.1, 50.0), 1),
            "rating": float(rng.randint(1, 100)),
            "make": rng.choice(MAKES),
            "region": rng.choice(REGIONS),
        }
        for i in range(CATALOG_SIZE)
    ]
    return ColumnTable.from_rows(rows)


def build_schema() -> Schema:
    return Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", 0, 5000),
            Attribute.numeric("weight", 0, 50),
            Attribute.numeric("rating", 0, 100),
            Attribute.categorical("make", MAKES),
            Attribute.categorical("region", REGIONS),
        ),
    )


def build_workload(count: int, seed: int = 17) -> List[SearchQuery]:
    """A mixed workload biased toward the narrow, selective queries the
    get-next loops issue — exactly where the naive scan walks the whole
    catalog to find a handful of matches."""
    rng = random.Random(seed)
    queries: List[SearchQuery] = []
    while len(queries) < count:
        roll = rng.random()
        if roll < 0.40:
            # Narrow price window (get-next probing shape).
            lower = rng.uniform(10.0, 4900.0)
            queries.append(
                SearchQuery(
                    (RangePredicate("price", lower, lower + rng.uniform(1.0, 25.0), True, False),)
                )
            )
        elif roll < 0.55:
            # Narrow range conjoined with a categorical filter.
            lower = rng.uniform(0.1, 45.0)
            queries.append(
                SearchQuery(
                    (RangePredicate("weight", lower, lower + rng.uniform(0.2, 2.0)),),
                    (InPredicate.of("make", rng.sample(MAKES, rng.randint(1, 2))),),
                )
            )
        elif roll < 0.70:
            # Point lookup on the coarse-grained rating attribute.
            value = float(rng.randint(1, 100))
            queries.append(
                SearchQuery(
                    (
                        RangePredicate("rating", value, value),
                        RangePredicate("price", rng.uniform(10, 2000), 5000.0),
                    )
                )
            )
        elif roll < 0.85:
            # Medium two-sided conjunction.
            price_low = rng.uniform(10.0, 3000.0)
            queries.append(
                SearchQuery(
                    (
                        RangePredicate("price", price_low, price_low + rng.uniform(100.0, 600.0)),
                        RangePredicate("rating", float(rng.randint(1, 50)), 100.0, False, True),
                    ),
                    (InPredicate.of("region", rng.sample(REGIONS, rng.randint(1, 3))),),
                )
            )
        else:
            # Broad, overflowing query (both engines early-terminate).
            queries.append(
                SearchQuery(
                    (RangePredicate("price", rng.uniform(10.0, 500.0), 5000.0),)
                )
            )
    return queries


def _time_workload(database: HiddenWebDatabase, queries: List[SearchQuery]):
    results = []
    timings = []
    for query in queries:
        started = time.perf_counter()
        result = database.search(query)
        timings.append(time.perf_counter() - started)
        results.append(result)
    return results, timings


def _assert_identical(naive_results, indexed_results) -> int:
    divergences = 0
    for reference, candidate in zip(naive_results, indexed_results):
        same = (
            candidate.outcome is reference.outcome
            and len(candidate.rows) == len(reference.rows)
            and all(
                list(actual.items()) == list(expected.items())
                for expected, actual in zip(reference.rows, candidate.rows)
            )
        )
        if not same:
            divergences += 1
    assert divergences == 0, f"{divergences} queries diverged between engines"
    return divergences


@pytest.mark.benchmark(group="interface-throughput")
def test_indexed_engine_speedup_over_naive_scan(benchmark, bench_quick):
    """≥5× median per-query speedup on a 10⁴-tuple catalog, byte-identical
    results (speedup asserted on full runs; divergence asserted always)."""
    catalog = build_catalog()
    schema = build_schema()
    query_count = QUICK_QUERIES if bench_quick else FULL_QUERIES
    queries = build_workload(query_count)

    def run():
        naive = NaiveScanDatabase(
            catalog, schema, FeaturedScoreRanking("price", boost_weight=900.0),
            system_k=SYSTEM_K, name="bench-naive",
        )
        indexed = HiddenWebDatabase(
            catalog, schema, FeaturedScoreRanking("price", boost_weight=900.0),
            system_k=SYSTEM_K, name="bench-indexed",
        )
        naive_results, naive_timings = _time_workload(naive, queries)
        indexed_results, indexed_timings = _time_workload(indexed, queries)
        return naive_results, naive_timings, indexed_results, indexed_timings

    naive_results, naive_timings, indexed_results, indexed_timings = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    _assert_identical(naive_results, indexed_results)
    naive_median = statistics.median(naive_timings)
    indexed_median = statistics.median(indexed_timings)
    median_speedup = naive_median / indexed_median if indexed_median > 0 else float("inf")
    total_speedup = sum(naive_timings) / max(sum(indexed_timings), 1e-12)

    benchmark.extra_info.update(
        {
            "catalog_size": CATALOG_SIZE,
            "queries": query_count,
            "naive_median_us": round(naive_median * 1e6, 1),
            "indexed_median_us": round(indexed_median * 1e6, 1),
            "median_speedup": round(median_speedup, 2),
            "total_speedup": round(total_speedup, 2),
            "quick_mode": bench_quick,
            **backend_metadata(),
        }
    )
    print_table(
        "INTERFACE-THROUGHPUT — naive scan vs indexed columnar engine",
        f"{CATALOG_SIZE} tuples, k={SYSTEM_K}, {query_count} queries, 0 divergences",
        [
            f"{'naive median':>16s} {naive_median * 1e6:>10.1f} us/query",
            f"{'indexed median':>16s} {indexed_median * 1e6:>10.1f} us/query",
            f"{'median speedup':>16s} {median_speedup:>10.2f} x",
            f"{'total speedup':>16s} {total_speedup:>10.2f} x",
        ],
    )
    if not bench_quick:
        assert median_speedup >= MIN_MEDIAN_SPEEDUP, (
            f"median speedup {median_speedup:.2f}x below the "
            f"{MIN_MEDIAN_SPEEDUP:.0f}x floor"
        )


@pytest.mark.benchmark(group="interface-throughput")
def test_batched_search_many_matches_sequential(benchmark, bench_quick):
    """``search_many`` must return exactly what per-query ``search`` returns
    while amortizing plan setup across the batch."""
    catalog = build_catalog(seed=19)
    schema = build_schema()
    queries = build_workload(QUICK_QUERIES if bench_quick else FULL_QUERIES, seed=23)

    def run():
        sequential_db = HiddenWebDatabase(
            catalog, schema, FeaturedScoreRanking("price", boost_weight=900.0),
            system_k=SYSTEM_K, name="bench-seq",
        )
        batched_db = HiddenWebDatabase(
            catalog, schema, FeaturedScoreRanking("price", boost_weight=900.0),
            system_k=SYSTEM_K, name="bench-batch",
        )
        sequential = [sequential_db.search(query) for query in queries]
        batched = batched_db.search_many(queries)
        return sequential, batched

    sequential, batched = benchmark.pedantic(run, rounds=1, iterations=1)
    _assert_identical(sequential, batched)
    benchmark.extra_info.update(backend_metadata())
