"""Randomized differential suite: the result cache's region entries against
brute force.

A crawled dense box is stored as one region entry of the query-result cache
(:meth:`~repro.webdb.cache.QueryResultCache.store_region`), and the cache's
probe answers every query inside one.  The reference here is the plainest
there is: the list of the distinct boxes stored, where a probe is covered
when one box contains it on every side the box constrains, its answer is a
scan of the universe, and a delta retires exactly the boxes one touched
version lies inside.

The region generator deliberately produces overlapping, adjacent and nested
regions, 1D and 2D, and the probes include half-open sides and boxes of
another signature; the end-to-end cases check the pages
:func:`~repro.core.dense_index.dense_rows` serves from the cache against the
brute-force ranking.
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
from repro.dataset.diamonds import diamond_schema
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.cache import FetchStatus, QueryResultCache, default_namespace
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.delta import CatalogDelta
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking
from tests.conftest import assert_matches_ground_truth

#: The diamond schema's domains, so the persisted rows are valid tuples.
PRICE = (300.0, 60000.0)
CARAT = (0.2, 5.0)
SEEDS = [7, 41, 2018, 5, 613]
NAMESPACE, K = "db", 10


class ListRegistry:
    """The brute-force record: every distinct box stored, scanned whole."""

    def __init__(self) -> None:
        self.boxes: List[SearchQuery] = []

    def add(self, box: SearchQuery) -> None:
        if box not in self.boxes:
            self.boxes.append(box)

    def covering(self, probe: SearchQuery) -> List[SearchQuery]:
        return [box for box in self.boxes if _contains(box, probe)]

    def retire(self, versions) -> int:
        reached = [box for box in self.boxes if any(box.matches(row) for row in versions)]
        self.boxes = [box for box in self.boxes if box not in reached]
        return len(reached)


def _contains(box: SearchQuery, probe: SearchQuery) -> bool:
    """Every side of ``box`` holds ``probe``'s side on its attribute."""
    sides = {side.attribute: side for side in probe.ranges}
    return all(
        side.attribute in sides and side.contains(sides[side.attribute]) for side in box.ranges
    )


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
    """Half the probes are drawn inside a stored region, so the covered
    path is exercised, a 1D region's now and then with a ``carat`` side
    added; the rest anywhere, with open sides now and then."""
    if rng.random() < 0.5:
        box = rng.choice(regions)
        sides = []
        for side in box.ranges:
            lower = round(rng.uniform(side.lower, side.upper), 2)
            upper = round(rng.uniform(lower, side.upper), 2)
            sides.append(_random_side(rng, side.attribute, lower, upper))
        if len(sides) == 1 and rng.random() < 0.3:
            sides.append(_random_side(rng, "carat", *_random_interval(rng, CARAT)))
        return SearchQuery(tuple(sides))
    if rng.random() < 0.6:
        lower, upper = _random_interval(rng, PRICE)
        return SearchQuery((_random_side(rng, "price", lower, upper),))
    return SearchQuery.build(
        ranges={"price": _random_interval(rng, PRICE), "carat": _random_interval(rng, CARAT)}
    )


def _inside(universe, box: SearchQuery) -> List[Dict[str, object]]:
    return [row for row in universe if box.matches(row)]


def _check_probe(cache: QueryResultCache, reference: ListRegistry, universe, probe) -> bool:
    """The cache answers ``probe`` exactly when a stored box contains it,
    with exactly the universe's rows inside it; returns whether it did."""
    probed = cache.probe(NAMESPACE, probe, K)
    if not reference.covering(probe):
        assert probed is None
        return False
    answer, status = probed
    assert status in (FetchStatus.CONTAINED, FetchStatus.HIT) and answer.proves_query
    ids = [row["id"] for row in answer.observed_rows]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(row["id"] for row in _inside(universe, probe))
    return True


def _region_keys(cache: QueryResultCache) -> List[Tuple]:
    return sorted(box.canonical_key() for box in cache.regions(NAMESPACE))


def _distinct_keys(boxes: List[SearchQuery]) -> List[Tuple]:
    return sorted({box.canonical_key() for box in boxes})


@pytest.mark.parametrize("seed", SEEDS)
def test_a_probe_inside_a_stored_region_answers_with_the_oracles_rows(seed):
    rng = random.Random(seed)
    universe = _universe(rng)
    regions = _random_regions(rng)
    cache, reference = QueryResultCache(), ListRegistry()
    for box in regions:
        assert cache.store_region(NAMESPACE, box, K, _inside(universe, box))
        reference.add(box)
    assert _region_keys(cache) == _distinct_keys(reference.boxes)

    probes = [_random_probe(rng, regions) for _ in range(300)]
    covered = sum(_check_probe(cache, reference, universe, probe) for probe in probes)
    # The probe generator must exercise both paths.
    assert 20 < covered < 300
    # A repeat is answered the same way, now as an exact hit.
    for probe in probes[:50]:
        _check_probe(cache, reference, universe, probe)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_coalesced_regions_answer_only_the_oracles_rows(seed):
    """In a namespace whose regions coalesce, a probe inside a stored box
    still answers, and every answer the cache gives is the oracle's."""
    rng = random.Random(seed)
    universe = _universe(rng)
    regions = _random_regions(rng)
    cache, reference = QueryResultCache(), ListRegistry()
    cache.register_domains(NAMESPACE, diamond_schema())
    for box in regions:
        cache.store_region(NAMESPACE, box, K, _inside(universe, box))
        reference.add(box)
    for _ in range(300):
        probe = _random_probe(rng, regions)
        probed = cache.probe(NAMESPACE, probe, K)
        assert (probed is not None) or not reference.covering(probe)
        if probed is not None:
            answer, _ = probed
            assert answer.proves_query
            assert sorted(row["id"] for row in answer.observed_rows) == sorted(
                row["id"] for row in _inside(universe, probe)
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_retirement_matches_reference(seed):
    """A delta retires exactly the region entries one touched version lies
    inside, counted by the index first (``delta_retired``); the survivors
    answer as the list does, with the rows they were stored with."""
    rng = random.Random(seed)
    universe = _universe(rng)
    regions = _random_regions(rng)
    cache, reference = QueryResultCache(), ListRegistry()
    index = DenseRegionIndex(cache, NAMESPACE)
    for box in regions:
        index.add_region(box, _inside(universe, box), K)
        reference.add(box)

    retired = 0
    for _ in range(4):
        touched = rng.sample(universe, rng.randint(1, 3))
        # An update touches the old version and the new one.
        moved = [dict(row, price=round(rng.uniform(*PRICE), 2)) for row in touched[:1]]
        delta = CatalogDelta.from_rows(NAMESPACE, "id", touched + moved, upserts=len(touched))
        expected = reference.retire(touched + moved)
        assert index.invalidate_delta(delta) == expected
        cache.invalidate_delta(NAMESPACE, delta)
        retired += expected
        assert _region_keys(cache) == _distinct_keys(reference.boxes)
        for _ in range(60):
            probe = _random_probe(rng, regions)
            # The surviving regions still hold the rows they were stored with.
            if reference.covering(probe):
                _check_probe(cache, reference, universe, probe)
    assert index.describe()["delta_retired"] == retired
    assert index.invalidate_delta(CatalogDelta.from_rows(NAMESPACE, "id", [])) == 0


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
    """The boxes persisted by one reranker come back, verified, as region
    entries of a restarted one: a probe inside a surviving box is answered
    at zero queries with the live rows, and a box a delta retired before the
    restart stays out of the store."""
    rng = random.Random(seed)
    universe = [
        _full_row(i, round(rng.uniform(*PRICE), 2), round(rng.uniform(*CARAT), 2))
        for i in range(120)
    ]
    database = HiddenWebDatabase(
        universe, diamond_schema_fixture, FeaturedScoreRanking("price"), system_k=K
    )
    regions = _random_regions(rng)
    path = str(tmp_path / "dense.sqlite")
    store = DenseRegionCache(diamond_schema_fixture, path=path)
    first, reference = QueryReranker(database, dense_cache=store), ListRegistry()
    for box in regions:
        first.dense_index.add_region(box, database.all_matches(box), K)
        reference.add(box)
    touched = dict(rng.choice(universe))
    touched["price"] = round(rng.uniform(*PRICE), 2)
    delta = database.apply_delta(upserts=[touched])
    regions_before = list(reference.boxes)
    reference.retire(delta.versions)
    assert first.apply_delta(delta)["regions_retired"] == len(regions_before) - len(
        reference.boxes
    )
    namespace = default_namespace(database)
    assert sorted(b.canonical_key() for b in first.result_cache.regions(namespace)) == (
        _distinct_keys(reference.boxes)
    )
    kept = [closed_bounds(box) for box in reference.boxes]
    assert all(stored.bounds in kept for stored in store.regions())
    store.close()

    reopened = DenseRegionCache(diamond_schema_fixture, path=path)
    second = QueryReranker(database, dense_cache=reopened)
    assert second.dense_index.region_count() == 0
    counters = second.verify_dense_cache()
    assert counters["checked"] == counters["unchanged"] == len(reopened.regions())
    live = database.all_matches(SearchQuery.everything())
    for _ in range(150):
        probe = _random_probe(rng, regions)
        if not reference.covering(probe):
            continue
        probed = second.result_cache.probe(namespace, probe, K)
        assert probed is not None
        answer, _ = probed
        assert sorted(row["id"] for row in answer.observed_rows) == sorted(
            row["id"] for row in _inside(live, probe)
        )
    reopened.close()


def test_concurrent_stores_lose_no_region():
    """Four threads storing regions and probing at once leave the cache one
    region entry per distinct box, each answering as the list does."""
    rng = random.Random(3)
    universe = _universe(rng)
    regions = _random_regions(rng)
    probes = [_random_probe(rng, regions) for _ in range(50)]
    cache, reference = QueryResultCache(), ListRegistry()
    index = DenseRegionIndex(cache, NAMESPACE)
    for box in regions:
        reference.add(box)
    barrier = threading.Barrier(4)
    errors: List[BaseException] = []

    def work(offset: int) -> None:
        barrier.wait()
        try:
            for position in range(offset, len(regions), 2):
                index.add_region(regions[position], _inside(universe, regions[position]), K)
                for probe in probes[position % 5 :: 5]:
                    probed = cache.probe(NAMESPACE, probe, K)
                    assert probed is None or reference.covering(probe)
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(offset % 2,)) for offset in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert _region_keys(cache) == _distinct_keys(reference.boxes)
    assert index.region_count() == len(reference.boxes)
    for probe in probes:
        _check_probe(cache, reference, universe, probe)


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
    density threshold so the shared cache holds overlapping regions (feed
    off: repeats must reach the cache, not a replay).  Every page equals the
    brute-force ranking, and the repeats cost nothing."""
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
    the cache's region entries and costs nothing."""
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
