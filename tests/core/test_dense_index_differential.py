"""Randomized differential suite: naive vs interval dense-region index.

The two implementations must agree wherever both can answer, and the interval
implementation must stay *sound* where it answers more (coalesced unions):
every covered lookup is checked against brute-force ground truth computed
from the row universe the regions were built from.

The region generator deliberately produces overlapping, adjacent, and nested
regions — the shapes coalescing must handle — and every region honours the
index invariant (its rows are *all* universe tuples inside its box).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.config import RerankConfig
from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import SingleAttributeRanking
from repro.core.regions import HyperRectangle
from repro.core.reranker import Algorithm, QueryReranker
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.query import RangePredicate, SearchQuery
from tests.conftest import page_through
from tests.reference import NaiveDenseRegionIndex, NaiveIndexReranker

INDEXES = {"interval": DenseRegionIndex, "naive": NaiveDenseRegionIndex}

PRICE = (0.0, 1000.0)
CARAT = (0.0, 10.0)


def _universe(rng: random.Random, size: int = 300) -> List[Dict[str, object]]:
    return [
        {
            "id": f"t{i}",
            "price": round(rng.uniform(*PRICE), 2),
            "carat": round(rng.uniform(*CARAT), 2),
        }
        for i in range(size)
    ]


def _rows_inside(universe, box: HyperRectangle) -> List[Dict[str, object]]:
    return [row for row in universe if box.contains(row)]


def _random_interval(rng: random.Random, domain: Tuple[float, float]) -> Tuple[float, float]:
    width = rng.uniform(0.01, 0.35) * (domain[1] - domain[0])
    lower = rng.uniform(domain[0], domain[1] - width)
    return round(lower, 2), round(lower + width, 2)


def _random_regions(rng: random.Random) -> List[HyperRectangle]:
    """A mix of independent, adjacent, nested, and overlapping regions."""
    boxes: List[HyperRectangle] = []
    cursor = PRICE[0]
    for _ in range(25):
        lower, upper = _random_interval(rng, PRICE)
        kind = rng.random()
        if kind < 0.25 and boxes:
            # Adjacent: start exactly where a previous 1D region ended.
            previous = boxes[-1]
            if previous.attributes == ("price",):
                side = previous.side("price")
                width = round(rng.uniform(5.0, 60.0), 2)
                lower, upper = side.upper, min(side.upper + width, PRICE[1])
        elif kind < 0.45 and boxes:
            # Nested: strictly inside a previous 1D region.
            previous = boxes[-1]
            if previous.attributes == ("price",):
                side = previous.side("price")
                if side.width > 2.0:
                    lower = round(side.lower + side.width * 0.25, 2)
                    upper = round(side.lower + side.width * 0.75, 2)
        if lower >= upper:
            continue
        boxes.append(HyperRectangle.from_bounds({"price": (lower, upper)}))
        cursor = upper
    for _ in range(12):
        p_lower, p_upper = _random_interval(rng, PRICE)
        c_lower, c_upper = _random_interval(rng, CARAT)
        if rng.random() < 0.4 and boxes:
            previous = boxes[-1]
            if previous.attributes == ("carat", "price"):
                # Stackable: same carat side, price interval starting at the
                # previous upper bound (the shape binary splits produce).
                c_lower = previous.side("carat").lower
                c_upper = previous.side("carat").upper
                p_lower = previous.side("price").upper
                p_upper = round(min(p_lower + rng.uniform(10.0, 80.0), PRICE[1]), 2)
        if p_lower >= p_upper or c_lower >= c_upper:
            continue
        boxes.append(
            HyperRectangle.from_bounds(
                {"price": (p_lower, p_upper), "carat": (c_lower, c_upper)}
            )
        )
    return boxes


def _random_probe(rng: random.Random) -> HyperRectangle:
    if rng.random() < 0.6:
        lower, upper = _random_interval(rng, PRICE)
        include_lower = rng.random() < 0.8
        include_upper = rng.random() < 0.8
        return HyperRectangle(
            (RangePredicate("price", lower, upper, include_lower, include_upper),)
        )
    p_lower, p_upper = _random_interval(rng, PRICE)
    c_lower, c_upper = _random_interval(rng, CARAT)
    return HyperRectangle.from_bounds(
        {"price": (p_lower, p_upper), "carat": (c_lower, c_upper)}
    )


def _ground_truth(
    universe,
    probe: HyperRectangle,
    base_query: Optional[SearchQuery],
) -> List[Dict[str, object]]:
    selected = []
    for row in universe:
        if not probe.contains(row):
            continue
        if base_query is not None and not base_query.matches(row):
            continue
        selected.append(row)
    return sorted(selected, key=lambda row: str(row["id"]))


def _normalize(rows) -> List[Dict[str, object]]:
    return sorted((dict(row) for row in rows), key=lambda row: str(row["id"]))


@pytest.mark.parametrize("seed", [7, 41, 2018])
def test_differential_random_regions(diamond_schema_fixture, seed):
    rng = random.Random(seed)
    universe = _universe(rng)
    naive = NaiveDenseRegionIndex(diamond_schema_fixture)
    interval = DenseRegionIndex(diamond_schema_fixture)
    for box in _random_regions(rng):
        rows = _rows_inside(universe, box)
        naive.add_region(box, rows)
        interval.add_region(box, rows)

    # Coalescing can only shrink the structure, never lose coverage.
    assert interval.region_count() <= naive.region_count()

    base_queries = [None, SearchQuery.build(ranges={"carat": (2.0, 8.0)})]
    covered_probes = 0
    extra_coverage = 0
    for _ in range(250):
        probe = _random_probe(rng)
        base = rng.choice(base_queries)
        naive_rows = naive.lookup(probe, base)
        interval_rows = interval.lookup(probe, base)
        if naive_rows is not None:
            # Whatever the seed index answers, the interval index must too.
            assert interval_rows is not None
        if interval_rows is None:
            continue
        covered_probes += 1
        if naive_rows is None:
            extra_coverage += 1
        truth = _ground_truth(universe, probe, base)
        assert _normalize(interval_rows) == truth
        if naive_rows is not None:
            assert _normalize(naive_rows) == truth
    # The probe generator must actually exercise the covered path.
    assert covered_probes > 20


def test_interval_counters_match_structure(diamond_schema_fixture):
    rng = random.Random(99)
    universe = _universe(rng)
    interval = DenseRegionIndex(diamond_schema_fixture)
    for box in _random_regions(rng):
        interval.add_region(box, _rows_inside(universe, box))
        # The incremental counters must equal a from-scratch re-summation
        # after every insert, merges included.
        description = interval.describe()
        assert description["regions"] == sum(description["per_signature"].values())
    assert interval.region_count() == sum(interval.describe()["per_signature"].values())


def test_region_heavy_rerank_matches_reference_index_end_to_end(bluenile_db, monkeypatch):
    """1D-RERANK over nested and shifted windows around the big
    ``length_width_ratio = 1.0`` cluster, with an eager density threshold so
    the shared index accumulates overlapping regions (feed off: repeats must
    reach the index, not a replay).  Same pages under both indexes, and the
    interval index — coalescing can only remove crawls — issues no more
    external queries than the linear reference."""
    ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
    windows = [(0.995, 1.6), (0.99, 1.2), (0.995, 1.3), (1.05, 1.5), (1.15, 1.8), (1.0, 1.45)]
    monkeypatch.setattr("repro.core.dense_index.DENSE_RATIO_THRESHOLD", 0.02)
    config = RerankConfig(enable_rerank_feed=False)
    runs = {}
    for impl, reranker_class in (("naive", NaiveIndexReranker), ("interval", QueryReranker)):
        reranker = reranker_class(bluenile_db, config=config)
        served = [
            page_through(
                reranker,
                (ranking, Algorithm.RERANK, SearchQuery.build(ranges={"length_width_ratio": window})),
                pages=1,
                page_size=10,
            )
            for window in windows * 2
        ]
        assert reranker.dense_index.describe()["impl"] == impl
        assert reranker.dense_index.region_count() >= 1
        runs[impl] = ([pages for pages, _ in served], sum(cost for _, cost in served))
        reranker.close()
    assert runs["interval"][0] == runs["naive"][0]
    assert runs["interval"][1] <= runs["naive"][1]


@pytest.mark.parametrize("impl", ["interval", "naive"])
def test_persistence_roundtrip_preserves_answers(diamond_schema_fixture, tmp_path, impl):
    """Coalesced in-memory state must reload from the (uncoalesced,
    append-only) DenseRegionCache with identical answers."""
    rng = random.Random(4)
    lo, hi = diamond_schema_fixture.domain_bounds("price")

    def full_row(i: int, price: float) -> Dict[str, object]:
        return {
            "id": f"d{i}",
            "price": price,
            "carat": 1.0,
            "depth": 60.0,
            "table": 55.0,
            "length_width_ratio": 1.0,
            "shape": "round",
            "cut": "ideal",
            "color": "D",
            "clarity": "IF",
        }

    universe = [full_row(i, round(rng.uniform(lo, hi), 2)) for i in range(120)]
    span = hi - lo
    # Overlapping and adjacent price intervals: coalesce into few regions.
    intervals = [
        (lo, lo + 0.30 * span),
        (lo + 0.25 * span, lo + 0.50 * span),  # overlaps the first
        (lo + 0.50 * span, lo + 0.60 * span),  # adjacent to the second
        (lo + 0.80 * span, hi),                # separate
    ]

    path = str(tmp_path / f"dense-{impl}.sqlite")
    cache = DenseRegionCache(diamond_schema_fixture, path=path)
    first = INDEXES[impl](diamond_schema_fixture, cache=cache)
    for lower, upper in intervals:
        box = HyperRectangle.from_bounds({"price": (lower, upper)})
        first.add_interval("price", lower, upper, _rows_inside(universe, box))
    probes = [
        RangePredicate("price", lo + 0.10 * span, lo + 0.45 * span),  # union only
        RangePredicate("price", lo + 0.05 * span, lo + 0.20 * span),
        RangePredicate("price", lo + 0.85 * span, lo + 0.95 * span),
        RangePredicate("price", lo + 0.65 * span, lo + 0.75 * span),  # gap
    ]
    before = [
        (rows := first.lookup_interval("price", probe)) is not None
        and _normalize(rows)
        for probe in probes
    ]
    regions_before = first.region_count()
    tuples_before = first.tuple_count()
    cache.close()

    cache2 = DenseRegionCache(diamond_schema_fixture, path=path)
    second = INDEXES[impl](diamond_schema_fixture, cache=cache2)
    after = [
        (rows := second.lookup_interval("price", probe)) is not None
        and _normalize(rows)
        for probe in probes
    ]
    assert after == before
    assert second.region_count() == regions_before
    assert second.tuple_count() == tuples_before
    if impl == "interval":
        # The reloaded index re-coalesces the append-only spill.
        assert regions_before == 2
    cache2.close()
