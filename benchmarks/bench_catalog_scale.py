"""CATALOG-SCALE — the buffer-backed columnar engine at 10⁴/10⁵/10⁶ tuples.

``request_path/`` runs at request scale on a 10⁴-tuple catalog; this tier
gates *data* scale.  A deterministic synthetic catalog
(:func:`~repro.dataset.generators.generate_scale_catalog`) is written
straight to SQLite, streamed back out through the store's batched cursor,
and served by two databases over identical columns — one on the seed's
pure-list columnar layout (``ColumnarCatalog(backend="list")``, the layout
oracle), one on the production buffer layout (``"buffer"``: numpy views when
importable, stdlib ``array`` otherwise).

The workload is shaped for the two places the list layout hurts at scale:
conjunctions of two ~2–3 %-selective ranges (candidate plans that sort a
10⁴–10⁵-position driver per query) and correlation-fooled rare conjunctions
(deep early-termination scans).  Narrow get-next probes and broad
overflowing queries round it out.

Gates:

* **byte-identity** (always, including ``--bench-quick``): list and buffer
  backends return identical pages and outcomes at every size; the naive
  reference scan is compared too at 10⁴;
* **speedup** (full runs, numpy available): ≥5× median per-query speedup
  for buffer over list at 10⁶ tuples;
* **memory** (full runs): the retained buffer catalog is ≤50 % of the
  dict-of-rows baseline (row dictionaries plus a key→row map — what the
  seed database held) at 10⁶ tuples;
* **delta application** (identity always; growth on full runs): a 100-row
  repricing leaves exactly the catalog a from-scratch rebuild
  (``tests/reference/catalog_rebuild.py``) builds, and its median time grows
  ≤6× from 10⁴ to 10⁵ tuples.

Excluded from the per-PR quick gate except for a cheap 10⁴ sanity point;
the nightly ``scale-bench`` CI job runs the full tier and uploads
``BENCH_scale.json`` (see ``benchmarks/history/README.md``).
"""

from __future__ import annotations

import gc
import platform
import random
import resource
import statistics
import time
import tracemalloc
from typing import Dict, Iterable, List, Tuple

import pytest

from repro.dataset.generators import generate_scale_catalog, scale_catalog_schema
from repro.sqlstore.store import SQLiteTupleStore
from repro.webdb import arrays
from repro.webdb.database import HiddenWebDatabase, stream_sorted_columns
from repro.webdb.indexes import ColumnarCatalog
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from tests.reference import NaiveScanDatabase, RebuildDatabase, database_on_layout

SIZES = (10_000, 100_000, 1_000_000)
SYSTEM_K = 20
QUERY_COUNT = 60
MIN_MEDIAN_SPEEDUP = 5.0
MAX_MEMORY_RATIO = 0.50
GATE_SIZE = 1_000_000
#: A 100-row repricing may cost at most this many times more at 10⁵ tuples
#: than at 10⁴ (a whole-catalog rebuild grows ≈16×, the splice ≈4×).
MAX_DELTA_GROWTH = 6.0
DELTA_ROWS = 100
#: Lower price edges of the repriced windows — disjoint, so the store's rows
#: are still the served versions when each window is read.
DELTA_WINDOW_STARTS = (150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0)
#: Naive reference comparison only at the smallest size — the row-at-a-time
#: scan needs minutes per workload beyond 10⁴ tuples.
NAIVE_SIZE = 10_000

_SCHEMA = scale_catalog_schema()
_STORES: Dict[int, SQLiteTupleStore] = {}
_GENERATE_SECONDS: Dict[int, float] = {}
_DELTA_MEDIAN_MS: Dict[int, float] = {}


def print_table(title: str, header: str, rows: Iterable[str]) -> None:
    """Print a small table (shown with ``-s`` / in captured output)."""
    print("\n" + title)
    print("-" * max(len(title), len(header)))
    print(header)
    for row in rows:
        print(row)


def backend_metadata() -> Dict[str, object]:
    """Environment metadata every bench record carries.

    History records are compared across machines; whether numpy was
    importable (and therefore which concrete layout the default
    ``"buffer"`` backend resolved to) changes the columnar engine's absolute
    numbers, so it must be visible in ``extra_info``.
    """
    return {
        "columnar_backend": arrays.resolve_backend("buffer"),
        "numpy_available": arrays.numpy_available(),
        "python": platform.python_version(),
    }


def _ranking() -> FeaturedScoreRanking:
    return FeaturedScoreRanking("price", boost_weight=2500.0)


@pytest.fixture(scope="session")
def scale_store(tmp_path_factory):
    """Session-cached on-disk stores, one per catalog size, generated once."""
    root = tmp_path_factory.mktemp("scale-catalogs")

    def get(size: int) -> SQLiteTupleStore:
        if size not in _STORES:
            store = SQLiteTupleStore(_SCHEMA, path=str(root / f"scale_{size}.sqlite"))
            started = time.perf_counter()
            generate_scale_catalog(store, size, seed=13)
            _GENERATE_SECONDS[size] = time.perf_counter() - started
            _STORES[size] = store
        return _STORES[size]

    return get


def build_workload(count: int, seed: int = 17) -> List[SearchQuery]:
    rng = random.Random(seed)
    queries: List[SearchQuery] = []
    while len(queries) < count:
        roll = rng.random()
        if roll < 0.60:
            # Two ~2-3%-selective ranges: the candidate plan sorts a large
            # driver (about 1% of the catalog) and filters it.
            price_low = rng.uniform(150.0, 600.0)
            rating_low = round(rng.uniform(0.0, 9.7), 1)
            queries.append(
                SearchQuery(
                    (
                        RangePredicate("price", price_low, price_low + rng.uniform(8.0, 16.0)),
                        RangePredicate("rating", rating_low, rating_low + rng.choice((0.2, 0.3))),
                    )
                )
            )
        elif roll < 0.85:
            # Price and weight are positively correlated; a weight window far
            # off the regression line matches almost nothing, but the
            # independence estimate predicts plenty — the planner scans deep.
            price_low = rng.uniform(100.0, 400.0)
            price_high = price_low * rng.uniform(1.3, 1.8)
            weight_low = 0.02 * price_low + 1.0 + rng.uniform(25.0, 40.0)
            queries.append(
                SearchQuery(
                    (
                        RangePredicate("price", price_low, price_high),
                        RangePredicate("weight", weight_low, weight_low + rng.uniform(2.0, 5.0)),
                    )
                )
            )
        elif roll < 0.93:
            # Narrow get-next probing window.
            lower = rng.uniform(50.0, 4000.0)
            queries.append(
                SearchQuery((RangePredicate("price", lower, lower + rng.uniform(2.0, 20.0)),))
            )
        else:
            # Broad, overflowing query (early termination on both backends).
            queries.append(
                SearchQuery((RangePredicate("price", rng.uniform(10.0, 200.0), 5000.0),))
            )
    return queries


def _load_database(store: SQLiteTupleStore, backend: str, cls=HiddenWebDatabase):
    started = time.perf_counter()
    ranking = _ranking()
    database = database_on_layout(
        cls,
        stream_sorted_columns(store, _SCHEMA, ranking, validate=False),
        _SCHEMA,
        ranking,
        backend,
        system_k=SYSTEM_K,
        name=f"scale-{backend}-{cls.__name__}",
    )
    return database, time.perf_counter() - started


def _time_workload(database: HiddenWebDatabase, queries: List[SearchQuery]):
    results, timings = [], []
    for query in queries:
        started = time.perf_counter()
        result = database.search(query)
        timings.append(time.perf_counter() - started)
        results.append(result)
    return results, timings


def _assert_identical(reference, candidate, label: str) -> None:
    for index, (expected, actual) in enumerate(zip(reference, candidate)):
        assert actual.outcome is expected.outcome, (
            f"{label}: query {index} outcome diverged "
            f"({actual.outcome} vs {expected.outcome})"
        )
        assert len(actual.rows) == len(expected.rows), (
            f"{label}: query {index} row count diverged"
        )
        for expected_row, actual_row in zip(expected.rows, actual.rows):
            assert list(actual_row.items()) == list(expected_row.items()), (
                f"{label}: query {index} returned non-identical rows"
            )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.mark.benchmark(group="catalog-scale")
@pytest.mark.parametrize("size", SIZES)
def test_scale_latency_and_identity(benchmark, bench_quick, scale_store, size):
    """Per-query latency list vs buffer at each size, byte-identical pages
    (≥5× median buffer speedup gated at 10⁶ on full numpy runs)."""
    if bench_quick and size > 10_000:
        pytest.skip("quick mode runs only the 10^4 sanity point")
    store = scale_store(size)
    queries = build_workload(QUERY_COUNT)

    def run():
        list_db, list_load = _load_database(store, "list")
        buffer_db, buffer_load = _load_database(store, "buffer")
        # Warm the lazy per-attribute indexes so the timings below measure
        # steady-state query execution, not one-off index construction.
        for query in queries:
            list_db.search(query)
            buffer_db.search(query)
        list_results, list_timings = _time_workload(list_db, queries)
        buffer_results, buffer_timings = _time_workload(buffer_db, queries)
        naive_results = None
        if size <= NAIVE_SIZE:
            naive_db, _ = _load_database(store, "list", cls=NaiveScanDatabase)
            naive_results, _ = _time_workload(naive_db, queries)
        return (
            list_results, list_timings, buffer_results, buffer_timings,
            naive_results, list_load, buffer_load,
        )

    (
        list_results, list_timings, buffer_results, buffer_timings,
        naive_results, list_load, buffer_load,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    _assert_identical(list_results, buffer_results, f"{size}: list vs buffer")
    if naive_results is not None:
        _assert_identical(naive_results, list_results, f"{size}: naive vs list")
        _assert_identical(naive_results, buffer_results, f"{size}: naive vs buffer")

    list_median = statistics.median(list_timings)
    buffer_median = statistics.median(buffer_timings)
    median_speedup = list_median / buffer_median if buffer_median > 0 else float("inf")
    total_speedup = sum(list_timings) / max(sum(buffer_timings), 1e-12)
    p99_index = max(0, int(0.99 * len(buffer_timings)) - 1)

    benchmark.extra_info.update(
        {
            "catalog_size": size,
            "queries": QUERY_COUNT,
            "generate_seconds": round(_GENERATE_SECONDS.get(size, 0.0), 2),
            "list_load_seconds": round(list_load, 2),
            "buffer_load_seconds": round(buffer_load, 2),
            "list_median_us": round(list_median * 1e6, 1),
            "buffer_median_us": round(buffer_median * 1e6, 1),
            "list_p99_us": round(sorted(list_timings)[p99_index] * 1e6, 1),
            "buffer_p99_us": round(sorted(buffer_timings)[p99_index] * 1e6, 1),
            "median_speedup": round(median_speedup, 2),
            "total_speedup": round(total_speedup, 2),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "naive_compared": naive_results is not None,
            "quick_mode": bench_quick,
            **backend_metadata(),
        }
    )
    print_table(
        f"CATALOG-SCALE — list vs buffer columnar backend at {size} tuples",
        f"{size} tuples, k={SYSTEM_K}, {QUERY_COUNT} queries, 0 divergences",
        [
            f"{'list median':>16s} {list_median * 1e6:>12.1f} us/query",
            f"{'buffer median':>16s} {buffer_median * 1e6:>12.1f} us/query",
            f"{'median speedup':>16s} {median_speedup:>12.2f} x",
            f"{'total speedup':>16s} {total_speedup:>12.2f} x",
            f"{'peak RSS':>16s} {_peak_rss_mb():>12.1f} MB",
        ],
    )
    if size == GATE_SIZE and not bench_quick and arrays.numpy_available():
        assert median_speedup >= MIN_MEDIAN_SPEEDUP, (
            f"buffer backend median speedup {median_speedup:.2f}x at "
            f"{GATE_SIZE} tuples is below the {MIN_MEDIAN_SPEEDUP:.0f}x floor"
        )


def _retained_bytes(build) -> int:
    """Retained allocation of ``build()``'s result, measured by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = build()
    gc.collect()
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del result
    gc.collect()
    return after - before


@pytest.mark.benchmark(group="catalog-scale")
def test_scale_memory_footprint(benchmark, bench_quick, scale_store):
    """Retained buffer-catalog memory ≤50% of the dict-of-rows baseline
    (gated at 10⁶ on full runs; the 10⁴ quick point records only)."""
    size = 10_000 if bench_quick else GATE_SIZE
    store = scale_store(size)
    ranking = _ranking()
    column_order = _SCHEMA.columns()

    def build_baseline():
        # What the seed database retained per tuple: a row dictionary in
        # hidden-rank order plus a key→row index over the same dictionaries.
        columns = stream_sorted_columns(store, _SCHEMA, ranking, validate=False)
        rows = [
            {name: columns[name][rank] for name in column_order}
            for rank in range(size)
        ]
        by_key = {row[_SCHEMA.key]: row for row in rows}
        return rows, by_key

    def build_buffer():
        columns = stream_sorted_columns(store, _SCHEMA, ranking, validate=False)
        return ColumnarCatalog.from_columns(
            columns, column_order, _SCHEMA.key, backend="buffer"
        )

    def run():
        baseline_bytes = _retained_bytes(build_baseline)
        buffer_bytes = _retained_bytes(build_buffer)
        return baseline_bytes, buffer_bytes

    baseline_bytes, buffer_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = buffer_bytes / max(baseline_bytes, 1)

    benchmark.extra_info.update(
        {
            "catalog_size": size,
            "baseline_mb": round(baseline_bytes / 1e6, 1),
            "buffer_mb": round(buffer_bytes / 1e6, 1),
            "memory_ratio": round(ratio, 3),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "quick_mode": bench_quick,
            **backend_metadata(),
        }
    )
    print_table(
        f"CATALOG-SCALE — retained catalog memory at {size} tuples",
        f"{size} tuples (tracemalloc, retained after gc)",
        [
            f"{'dict-of-rows':>16s} {baseline_bytes / 1e6:>12.1f} MB",
            f"{'buffer catalog':>16s} {buffer_bytes / 1e6:>12.1f} MB",
            f"{'ratio':>16s} {ratio:>12.3f}",
        ],
    )
    if not bench_quick:
        assert ratio <= MAX_MEMORY_RATIO, (
            f"buffer catalog retains {ratio:.1%} of the dict-of-rows "
            f"baseline; the ceiling is {MAX_MEMORY_RATIO:.0%}"
        )


@pytest.mark.benchmark(group="catalog-scale")
def test_scale_streaming_equals_eager_load(benchmark, bench_quick, scale_store):
    """A store streamed through its batched cursor must produce exactly the
    database a ``ColumnTable`` of the same rows produces (cheap 10⁴ point,
    runs always)."""
    from repro.dataset.table import ColumnTable

    store = scale_store(10_000)
    queries = build_workload(24, seed=29)

    def run():
        table = ColumnTable.from_rows(store.all_rows(), columns=_SCHEMA.columns())
        eager = HiddenWebDatabase(
            table, _SCHEMA, _ranking(), system_k=SYSTEM_K, name="scale-eager"
        )
        streamed, _ = _load_database(store, "buffer")
        eager_results = [eager.search(query) for query in queries]
        streamed_results = [streamed.search(query) for query in queries]
        return eager_results, streamed_results

    eager_results, streamed_results = benchmark.pedantic(run, rounds=1, iterations=1)
    _assert_identical(eager_results, streamed_results, "eager vs streamed")
    benchmark.extra_info.update({"catalog_size": 10_000, **backend_metadata()})


@pytest.mark.benchmark(group="catalog-scale")
@pytest.mark.parametrize("size", SIZES)
def test_scale_delta_application(benchmark, bench_quick, scale_store, size):
    """Median of seven 100-row contiguous-by-price repricings at each size,
    the result identical to the rebuild oracle (gated on full runs: ≤6×
    growth from 10⁴ to 10⁵).

    ``apply_delta`` bisects each new version into the served rank order and
    splices the columns, so per delta it makes ~``d·log₂ n`` hidden-score
    calls; what remains O(n) is C-speed — the ``rank_of`` copy and one memcpy
    per column — which is why the time still grows with the catalog, slowly.
    """
    if bench_quick and size > 10_000:
        pytest.skip("quick mode runs only the 10^4 sanity point")
    store = scale_store(size)
    subject, _ = _load_database(store, "buffer")
    oracle, _ = _load_database(store, "buffer", cls=RebuildDatabase)
    deltas = []
    for start in DELTA_WINDOW_STARTS:
        window = store.range_scan("price", start, start + 40.0)[:DELTA_ROWS]
        assert len(window) == DELTA_ROWS
        deltas.append([dict(row, price=round(row["price"] * 0.97, 2)) for row in window])

    def run():
        timings = []
        for upserts in deltas:
            started = time.perf_counter()
            subject.apply_delta(upserts=upserts)
            timings.append(time.perf_counter() - started)
        started = time.perf_counter()
        oracle.apply_delta(upserts=[row for upserts in deltas for row in upserts])
        return timings, time.perf_counter() - started

    timings, rebuild_seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    spliced, rebuilt = subject._columnar, oracle._columnar
    assert spliced.rank_of == rebuilt.rank_of, f"{size}: ranks diverged from the rebuild"
    for name in rebuilt.column_order:
        actual, expected = spliced.raw_column(name), rebuilt.raw_column(name)
        assert type(actual) is type(expected) and actual == expected, (
            f"{size}: column {name!r} diverged from the rebuild"
        )

    median_ms = statistics.median(timings) * 1e3
    _DELTA_MEDIAN_MS[size] = median_ms
    growth = median_ms / _DELTA_MEDIAN_MS[10_000] if 10_000 in _DELTA_MEDIAN_MS else None
    benchmark.extra_info.update(
        {
            "catalog_size": size,
            "delta_rows": DELTA_ROWS,
            "deltas": len(timings),
            "delta_median_ms": round(median_ms, 2),
            "delta_max_ms": round(max(timings) * 1e3, 2),
            "rebuild_ms": round(rebuild_seconds * 1e3, 1),
            "growth_from_1e4": None if growth is None else round(growth, 2),
            "quick_mode": bench_quick,
            **backend_metadata(),
        }
    )
    print_table(
        f"CATALOG-SCALE — {DELTA_ROWS}-row repricing at {size} tuples",
        f"{len(timings)} deltas, columns and ranks identical to one rebuild of all of them",
        [
            f"{'splice median':>16s} {median_ms:>12.2f} ms/delta",
            f"{'splice max':>16s} {max(timings) * 1e3:>12.2f} ms/delta",
            f"{'one rebuild':>16s} {rebuild_seconds * 1e3:>12.1f} ms",
        ],
    )
    if size == 100_000 and not bench_quick and growth is not None:
        assert growth <= MAX_DELTA_GROWTH, (
            f"a {DELTA_ROWS}-row delta costs {growth:.1f}x more at 10^5 tuples than "
            f"at 10^4; the ceiling is {MAX_DELTA_GROWTH:.0f}x"
        )
