"""Randomized differential suite: the dense-region registry against a list.

:class:`~repro.core.dense_index.DenseRegionIndex` keeps the boxes crawled
whole in one :class:`~repro.webdb.boxindex.BoxIndex` per attribute
signature.  Its reference here is the plainest registry there is: a list of
the distinct boxes added, where a probe is covered when one box of the same
signature contains it on every side, and a delta retires exactly the boxes
one touched version lies inside.

The region generator deliberately produces overlapping, adjacent and nested
regions, 1D and 2D, and the probes include half-open sides; the end-to-end
cases check the pages :func:`~repro.core.dense_index.dense_rows` serves from
the registry against the brute-force ranking.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Tuple

import pytest

from repro.config import RerankConfig
from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.regions import closed_bounds
from repro.core.reranker import Algorithm, QueryReranker
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.delta import CatalogDelta
from repro.webdb.query import RangePredicate, SearchQuery
from tests.conftest import assert_matches_ground_truth

#: The diamond schema's domains, so the persisted rows are valid tuples.
PRICE = (300.0, 60000.0)
CARAT = (0.2, 5.0)
SEEDS = [7, 41, 2018, 5, 613]


class ListRegistry:
    """The brute-force registry: every distinct box added, scanned whole."""

    def __init__(self) -> None:
        self.boxes: List[SearchQuery] = []

    def add(self, box: SearchQuery) -> None:
        if box not in self.boxes:
            self.boxes.append(box)

    def covering(self, probe: SearchQuery) -> List[SearchQuery]:
        return [
            box
            for box in self.boxes
            if set(box.constrained_attributes) == set(probe.constrained_attributes)
            and all(box.range_on(side.attribute).contains(side) for side in probe.ranges)
        ]

    def retire(self, versions) -> int:
        reached = [box for box in self.boxes if any(box.matches(row) for row in versions)]
        self.boxes = [box for box in self.boxes if box not in reached]
        return len(reached)


def _universe(rng: random.Random, size: int = 300) -> List[Dict[str, object]]:
    return [
        {
            "id": f"t{i}",
            "price": round(rng.uniform(*PRICE), 2),
            "carat": round(rng.uniform(*CARAT), 2),
        }
        for i in range(size)
    ]


def _random_interval(rng: random.Random, domain: Tuple[float, float]) -> Tuple[float, float]:
    width = rng.uniform(0.01, 0.35) * (domain[1] - domain[0])
    lower = rng.uniform(domain[0], domain[1] - width)
    return round(lower, 2), round(lower + width, 2)


def _signature(box: SearchQuery) -> Tuple[str, ...]:
    return tuple(sorted(box.constrained_attributes))


def _random_regions(rng: random.Random) -> List[SearchQuery]:
    """A mix of independent, adjacent, nested, repeated and overlapping
    regions, 1D on ``price`` and 2D on ``(price, carat)``."""
    boxes: List[SearchQuery] = []
    for _ in range(25):
        lower, upper = _random_interval(rng, PRICE)
        kind = rng.random()
        previous = boxes[-1] if boxes and _signature(boxes[-1]) == ("price",) else None
        if previous is not None and kind < 0.25:
            # Adjacent: start exactly where the previous region ended.
            side = previous.range_on("price")
            width = rng.uniform(0.005, 0.06) * (PRICE[1] - PRICE[0])
            lower, upper = side.upper, min(round(side.upper + width, 2), PRICE[1])
        elif previous is not None and kind < 0.45:
            # Nested: strictly inside the previous region.
            side = previous.range_on("price")
            lower = round(side.lower + side.width * 0.25, 2)
            upper = round(side.lower + side.width * 0.75, 2)
        elif previous is not None and kind < 0.55:
            # The same crawl again.
            lower, upper = previous.range_on("price").lower, previous.range_on("price").upper
        if lower >= upper:
            continue
        boxes.append(SearchQuery.build(ranges={"price": (lower, upper)}))
    for _ in range(12):
        p_lower, p_upper = _random_interval(rng, PRICE)
        c_lower, c_upper = _random_interval(rng, CARAT)
        if boxes and _signature(boxes[-1]) == ("carat", "price") and rng.random() < 0.4:
            # Stacked on the previous box along price (the shape binary
            # splits produce).
            previous = boxes[-1]
            c_lower, c_upper = previous.range_on("carat").lower, previous.range_on("carat").upper
            p_lower = previous.range_on("price").upper
            width = rng.uniform(0.01, 0.08) * (PRICE[1] - PRICE[0])
            p_upper = round(min(p_lower + width, PRICE[1]), 2)
        if p_lower >= p_upper or c_lower >= c_upper:
            continue
        boxes.append(
            SearchQuery.build(ranges={"price": (p_lower, p_upper), "carat": (c_lower, c_upper)})
        )
    return boxes


def _random_side(rng: random.Random, attribute: str, lower: float, upper: float) -> RangePredicate:
    """A side over ``[lower, upper]`` whose bounds are open now and then
    (a point stays closed)."""
    if lower == upper:
        return RangePredicate(attribute, lower, upper)
    return RangePredicate(attribute, lower, upper, rng.random() < 0.8, rng.random() < 0.8)


def _random_probe(rng: random.Random, regions: List[SearchQuery]) -> SearchQuery:
    """Half the probes are drawn inside a registered region, so the covered
    path is exercised; the rest anywhere, with open sides now and then."""
    if rng.random() < 0.5:
        box = rng.choice(regions)
        sides = []
        for side in box.ranges:
            lower = round(rng.uniform(side.lower, side.upper), 2)
            upper = round(rng.uniform(lower, side.upper), 2)
            sides.append(_random_side(rng, side.attribute, lower, upper))
        return SearchQuery(tuple(sides))
    if rng.random() < 0.6:
        lower, upper = _random_interval(rng, PRICE)
        return SearchQuery((_random_side(rng, "price", lower, upper),))
    return SearchQuery.build(
        ranges={"price": _random_interval(rng, PRICE), "carat": _random_interval(rng, CARAT)}
    )


def _check_lookup(index: DenseRegionIndex, reference: ListRegistry, probe) -> bool:
    """The index answers ``probe`` exactly when the list does, with one of
    the list's covering boxes (a reloaded box may list its sides in another
    order); returns whether it was covered."""
    covering = [closed_bounds(box) for box in reference.covering(probe)]
    found = index.lookup(probe)
    if not covering:
        assert found is None
        return False
    assert found is not None and closed_bounds(found) in covering
    return True


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_random_regions(seed):
    rng = random.Random(seed)
    regions = _random_regions(rng)
    index, reference = DenseRegionIndex(), ListRegistry()
    for box in regions:
        index.add_region(box, [])
        reference.add(box)
    assert index.region_count() == len(reference.boxes)

    covered = sum(_check_lookup(index, reference, _random_probe(rng, regions)) for _ in range(300))
    # The probe generator must exercise both paths.
    assert 20 < covered < 300


def test_lookup_counters_match_reference():
    rng = random.Random(99)
    regions = _random_regions(rng)
    index, reference = DenseRegionIndex(), ListRegistry()
    covered = 0
    for step, box in enumerate(regions, start=1):
        index.add_region(box, [])
        reference.add(box)
        covered += _check_lookup(index, reference, _random_probe(rng, regions))
        description = index.describe()
        # The counters equal a from-scratch count after every insert.
        assert description["regions"] == len(reference.boxes)
        assert description["regions"] == sum(description["per_signature"].values())
        assert description["lookups"] == step and description["hits"] == covered


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_retirement_matches_reference(seed):
    """A delta retires exactly the boxes one touched version lies inside,
    counted as ``delta_retired``; the survivors answer as the list does."""
    rng = random.Random(seed)
    universe = _universe(rng)
    regions = _random_regions(rng)
    index, reference = DenseRegionIndex(), ListRegistry()
    for box in regions:
        index.add_region(box, [row for row in universe if box.matches(row)])
        reference.add(box)

    retired = 0
    for _ in range(4):
        touched = rng.sample(universe, rng.randint(1, 3))
        # An update touches the old version and the new one.
        moved = [dict(row, price=round(rng.uniform(*PRICE), 2)) for row in touched[:1]]
        delta = CatalogDelta.from_rows("db", "id", touched + moved, upserts=len(touched))
        expected = reference.retire(touched + moved)
        assert index.invalidate_delta(delta) == expected
        retired += expected
        assert index.region_count() == len(reference.boxes)
        for _ in range(60):
            _check_lookup(index, reference, _random_probe(rng, regions))
    assert index.describe()["delta_retired"] == retired
    assert index.invalidate_delta(CatalogDelta.from_rows("db", "id", [])) == 0


def _full_row(i: int, price: float, carat: float) -> Dict[str, object]:
    return {
        "id": f"d{i}",
        "price": price,
        "carat": carat,
        "depth": 60.0,
        "table": 55.0,
        "length_width_ratio": 1.0,
        "shape": "round",
        "cut": "ideal",
        "color": "D",
        "clarity": "IF",
    }


@pytest.mark.parametrize("seed", [4, 19, 77])
def test_persistence_roundtrip_preserves_answers(diamond_schema_fixture, tmp_path, seed):
    """The regions persisted beside their rows reload into an index that
    answers every probe as the one that stored them; a region a delta
    retired before the restart stays retired."""
    rng = random.Random(seed)
    universe = [
        _full_row(i, round(rng.uniform(*PRICE), 2), round(rng.uniform(*CARAT), 2))
        for i in range(120)
    ]
    regions = _random_regions(rng)
    path = str(tmp_path / "dense.sqlite")
    cache = DenseRegionCache(diamond_schema_fixture, path=path)
    first, reference = DenseRegionIndex(cache), ListRegistry()
    for box in regions:
        first.add_region(box, [row for row in universe if box.matches(row)])
        reference.add(box)
    touched = rng.sample(universe, 2)
    reference.retire(touched)
    first.invalidate_delta(CatalogDelta.from_rows("db", "id", touched, upserts=2))
    probes = [_random_probe(rng, regions) for _ in range(150)]
    before = [first.lookup(probe) for probe in probes]
    cache.close()

    reopened = DenseRegionCache(diamond_schema_fixture, path=path)
    second = DenseRegionIndex(reopened)
    assert second.region_count() == first.region_count() == len(reference.boxes)
    assert [second.lookup(probe) is not None for probe in probes] == [
        found is not None for found in before
    ]
    for probe in probes:
        _check_lookup(second, reference, probe)
    for stored in reopened.regions():
        assert stored.bounds in [closed_bounds(registered) for registered in reference.boxes]
    reopened.close()


def test_concurrent_registration_matches_reference():
    """Threads registering and looking up at once leave the registry the
    list of every distinct box, with every lookup counted."""
    rng = random.Random(3)
    regions = _random_regions(rng)
    probes = [_random_probe(rng, regions) for _ in range(50)]
    index, reference = DenseRegionIndex(), ListRegistry()
    for box in regions:
        reference.add(box)
    barrier = threading.Barrier(4)

    def work(offset: int) -> None:
        barrier.wait()
        for position in range(offset, len(regions), 2):
            index.add_region(regions[position], [])
            for probe in probes[position % 5 :: 5]:
                found = index.lookup(probe)
                assert found is None or found in reference.covering(probe)

    threads = [threading.Thread(target=work, args=(offset % 2,)) for offset in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert index.region_count() == len(reference.boxes)
    for probe in probes:
        _check_lookup(index, reference, probe)
    assert index.describe()["lookups"] == sum(
        len(probes[position % 5 :: 5]) for position in range(len(regions))
    ) * 2 + len(probes)


def _random_windows(rng: random.Random, count: int = 5) -> List[Tuple[float, float]]:
    """Nested and shifted windows around the ``length_width_ratio = 1.0``
    cluster of round stones."""
    return [
        (round(rng.uniform(0.98, 1.0), 3), round(rng.uniform(1.05, 1.8), 3))
        for _ in range(count)
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_region_heavy_rerank_matches_the_oracle_end_to_end(bluenile_db, monkeypatch, seed):
    """1D-RERANK over random windows around the cluster, with an eager
    density threshold so the shared registry holds overlapping regions
    (feed off: repeats must reach the registry, not a replay).  Every page
    equals the brute-force ranking, and the repeats cost nothing."""
    ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
    windows = _random_windows(random.Random(seed))
    monkeypatch.setattr("repro.core.dense_index.DENSE_RATIO_THRESHOLD", 0.02)
    reranker = QueryReranker(bluenile_db, config=RerankConfig(enable_rerank_feed=False))
    costs = []
    for window in windows * 2:
        query = SearchQuery.build(ranges={"length_width_ratio": window})
        stream = reranker.rerank(query, ranking, Algorithm.RERANK)
        rows = stream.top(10)
        assert_matches_ground_truth(
            rows, bluenile_db.true_ranking(query, ranking.score, limit=10), ranking
        )
        costs.append(stream.statistics.external_queries)
    assert reranker.dense_index.region_count() >= 1
    assert costs[len(windows) :] == [0] * len(windows)
    reranker.close()


@pytest.mark.parametrize("seed", [1, 2])
def test_md_region_heavy_rerank_matches_the_oracle_end_to_end(bluenile_db, monkeypatch, seed):
    """MD-RERANK over random price filters, ranking by price and
    ``length_width_ratio`` with an eager density threshold: every page
    equals the brute-force ranking, a repeat reads its crawled boxes from
    the registry and costs nothing."""
    rng = random.Random(seed)
    monkeypatch.setattr("repro.core.dense_index.DENSE_RATIO_THRESHOLD", 0.05)
    weights = {"price": 1.0, "length_width_ratio": 1.0}
    ranking = LinearRankingFunction(
        weights, normalizer=MinMaxNormalizer.from_schema(bluenile_db.schema, list(weights))
    )
    low, high = bluenile_db.schema.domain_bounds("price")
    filters: List[SearchQuery] = [SearchQuery.everything()]
    for _ in range(2):
        upper = round(rng.uniform(low + 0.3 * (high - low), high), 2)
        filters.append(SearchQuery.build(ranges={"price": (low, upper)}))
    reranker = QueryReranker(bluenile_db, config=RerankConfig(enable_rerank_feed=False))
    first_costs, repeat_costs = [], []
    for costs in (first_costs, repeat_costs):
        for query in filters:
            stream = reranker.rerank(query, ranking, Algorithm.RERANK)
            rows = stream.top(8)
            assert_matches_ground_truth(
                rows, bluenile_db.true_ranking(query, ranking.score, limit=8), ranking
            )
            costs.append(stream.statistics)
    assert sum(s.dense_regions_built for s in first_costs) >= 1
    assert [s.external_queries for s in repeat_costs] == [0] * len(filters)
    assert sum(s.dense_index_hits for s in repeat_costs) >= 1
    reranker.close()
