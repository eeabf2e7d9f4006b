"""Experiment harness.

One function per paper artifact (the experiment index):

========  ====================================================================
id        function
========  ====================================================================
FIG2      :func:`run_fig2_parallelism` — fraction of iterations whose queries
          were issued in parallel (Blue Nile, 2D and 3D ranking functions).
FIG4      :func:`run_fig4_statistics` — query cost and processing time of one
          Zillow reranking request (the statistics panel of Fig. 4).
SC-1D     :func:`run_scenario_suite` over the 1D scenarios — query cost of
          1D-BASELINE / BINARY / RERANK per correlation class.
SC-MD     :func:`run_scenario_suite` over the MD scenarios — query cost of
          MD-BASELINE / BINARY / RERANK / TA.
SC-IDX    :func:`run_onthefly_indexing` — amortized cost of (1D/MD)-RERANK
          across repeated queries hitting the same dense regions.
SC-BW     :func:`run_best_worst_cases` — the paper's best- and worst-case
          ranking functions.
========  ====================================================================

Every function returns plain data (lists of :class:`ExperimentResult` or
dictionaries) and leaves presentation to the benchmarks / examples, so the
same harness drives ``pytest-benchmark`` and the example scripts.
"""

from __future__ import annotations

import random
import statistics as pystats
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    UserRankingFunction,
)
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.dataset.housing import HousingCatalogConfig, generate_housing_catalog, housing_schema
from repro.dataset.schema import Schema
from repro.dataset.table import ColumnTable
from repro.webdb.build import build_source
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.latency import LatencyModel
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking, SystemRankingFunction
from repro.workloads.scenarios import (
    Scenario,
    bluenile_scenarios_1d,
    bluenile_scenarios_md,
    zillow_scenarios_1d,
    zillow_scenarios_md,
)

SOURCES = ("bluenile", "zillow")
#: The demonstration scenarios of each source: ``(1D, MD)`` builders.
DEMO_SCENARIOS = {
    "bluenile": (bluenile_scenarios_1d, bluenile_scenarios_md),
    "zillow": (zillow_scenarios_1d, zillow_scenarios_md),
}


@dataclass
class ExperimentResult:
    """Outcome of running one (scenario, algorithm) cell."""

    scenario: str
    source: str
    algorithm: str
    dimensionality: int
    correlation: str
    tuples_returned: int
    external_queries: int
    processing_seconds: float
    parallel_fraction: float
    dense_regions_built: int
    dense_index_hits: int
    cache_hits: int

    def as_row(self) -> Dict[str, object]:
        """Dictionary row for tabular rendering."""
        return {
            "scenario": self.scenario,
            "source": self.source,
            "algorithm": self.algorithm,
            "dim": self.dimensionality,
            "correlation": self.correlation,
            "returned": self.tuples_returned,
            "queries": self.external_queries,
            "seconds": round(self.processing_seconds, 2),
            "parallel_fraction": round(self.parallel_fraction, 3),
            "dense_regions": self.dense_regions_built,
            "index_hits": self.dense_index_hits,
            "cache_hits": self.cache_hits,
        }


@dataclass
class ExperimentEnvironment:
    """Shared simulated environment: both web databases plus configurations.

    ``catalog_scale`` shrinks the catalogs for fast benchmark runs (1.0 is the
    default size used for the reported numbers; tests use 0.1).
    """

    catalog_scale: float = 1.0
    system_k: int = 20
    latency_seconds: float = 1.0
    rerank_config: RerankConfig = field(default_factory=RerankConfig)
    seed: int = 2018

    def __post_init__(self) -> None:
        diamond_config = DiamondCatalogConfig(
            size=max(int(4000 * self.catalog_scale), 200), seed=self.seed
        )
        housing_config = HousingCatalogConfig(
            size=max(int(6000 * self.catalog_scale), 200), seed=self.seed + 1
        )
        self.diamond_schema = diamond_schema(diamond_config)
        self.housing_schema = housing_schema(housing_config)
        latency = LatencyModel.accounted(self.latency_seconds, seed=self.seed)
        self.diamond_catalog = generate_diamond_catalog(diamond_config)
        self.housing_catalog = generate_housing_catalog(housing_config)
        self.diamond_ranking = FeaturedScoreRanking("price", boost_weight=2500.0)
        self.housing_ranking = FeaturedScoreRanking("price", boost_weight=150000.0)
        self.bluenile = HiddenWebDatabase(
            self.diamond_catalog,
            self.diamond_schema,
            self.diamond_ranking,
            system_k=self.system_k,
            latency=latency,
            name="bluenile",
        )
        self.zillow = HiddenWebDatabase(
            self.housing_catalog,
            self.housing_schema,
            self.housing_ranking,
            system_k=self.system_k,
            latency=LatencyModel.accounted(self.latency_seconds, seed=self.seed + 1),
            name="zillow",
        )

    def source(
        self, name: str
    ) -> Tuple[ColumnTable, Schema, SystemRankingFunction, HiddenWebDatabase]:
        """``(catalog, schema, system_ranking, database)`` of a source name."""
        if name == "bluenile":
            return (
                self.diamond_catalog, self.diamond_schema, self.diamond_ranking,
                self.bluenile,
            )
        if name == "zillow":
            return (
                self.housing_catalog, self.housing_schema, self.housing_ranking,
                self.zillow,
            )
        raise ValueError(f"unknown source {name!r}")

    def database(self, source: str) -> HiddenWebDatabase:
        """The simulated database behind a source name."""
        return self.source(source)[3]

    def make_reranker(self, source: str, config: Optional[RerankConfig] = None) -> QueryReranker:
        """A fresh reranker (fresh dense-region index) over a source."""
        return QueryReranker(self.database(source), config=config or self.rerank_config)

    def make_federated_reranker(
        self,
        source: str,
        shards: int,
        by: str = "rank",
        config: Optional[RerankConfig] = None,
    ) -> QueryReranker:
        """A fresh reranker over a fresh federated facade of the *same*
        catalog a source's unsharded database serves — the precondition for
        byte-identical differentials between the two.  Facade and reranker
        share one result cache, fixed when the federation is built."""
        catalog, schema, ranking, _ = self.source(source)
        config = config or self.rerank_config
        result_cache = config.make_result_cache()
        federation = build_source(
            catalog,
            schema,
            ranking,
            DatabaseConfig(
                system_k=self.system_k,
                latency_seconds=self.latency_seconds,
                seed=self.seed,
                shards=shards,
                shard_by=by,
            ),
            name=source,
            result_cache=result_cache,
            resilience=config.resilience,
        )
        return QueryReranker(federation, config=config, result_cache=result_cache)


def _run_cell(
    reranker: QueryReranker,
    scenario: Scenario,
    algorithm: Algorithm,
    depth: int,
) -> ExperimentResult:
    """Fetch the top-``depth`` answers of one scenario with one algorithm."""
    stream = reranker.rerank(scenario.query, scenario.ranking, algorithm=algorithm)
    stream.top(depth)
    snapshot = stream.statistics.snapshot()
    return ExperimentResult(
        scenario=scenario.name,
        source=scenario.source,
        algorithm=algorithm.value,
        dimensionality=scenario.dimensionality,
        correlation=scenario.correlation.value,
        tuples_returned=int(snapshot["tuples_returned"]),
        external_queries=int(snapshot["external_queries"]),
        processing_seconds=float(snapshot["processing_seconds"]),
        parallel_fraction=float(snapshot["parallel_fraction"]),
        dense_regions_built=int(snapshot["dense_regions_built"]),
        dense_index_hits=int(snapshot["dense_index_hits"]),
        cache_hits=int(snapshot["cache_hits"]),
    )


# --------------------------------------------------------------------------- #
# FIG2 — parallel-processing fractions
# --------------------------------------------------------------------------- #
def run_fig2_parallelism(
    environment: Optional[ExperimentEnvironment] = None,
    depth: int = 10,
) -> Dict[str, Dict[str, object]]:
    """Reproduce Fig. 2: the share of algorithm iterations whose queries were
    issued in parallel, for the paper's 3D and 2D Blue Nile functions.

    The paper reports >90 % for the 3D function and ≈97 % of *queries* issued
    in parallel for the 2D one (44 of 45).  The simulation reports both the
    iteration fraction and the query fraction for each dimensionality.
    """
    environment = environment or ExperimentEnvironment()
    schema = environment.diamond_schema
    functions = {
        "3d": LinearRankingFunction(
            {"price": 1.0, "carat": -0.1, "depth": -0.5},
            normalizer=MinMaxNormalizer.from_schema(schema, ["price", "carat", "depth"]),
        ),
        "2d": LinearRankingFunction(
            {"price": 1.0, "carat": -0.5},
            normalizer=MinMaxNormalizer.from_schema(schema, ["price", "carat"]),
        ),
    }
    output: Dict[str, Dict[str, object]] = {}
    for label, ranking in functions.items():
        reranker = environment.make_reranker("bluenile")
        stream = reranker.rerank(SearchQuery.everything(), ranking, algorithm=Algorithm.RERANK)
        stream.top(depth)
        snapshot = stream.statistics.snapshot()
        group_sizes = list(snapshot["iteration_group_sizes"])
        output[label] = {
            "ranking": ranking.describe(),
            "iterations": snapshot["iterations"],
            "parallel_iterations": snapshot["parallel_iterations"],
            "parallel_fraction": snapshot["parallel_fraction"],
            "queries": snapshot["external_queries"],
            "parallel_queries": snapshot["parallel_queries"],
            "parallel_query_fraction": (
                snapshot["parallel_queries"] / snapshot["external_queries"]
                if snapshot["external_queries"]
                else 0.0
            ),
            "iteration_group_sizes": group_sizes,
        }
    return output


# --------------------------------------------------------------------------- #
# FIG4 — statistics panel
# --------------------------------------------------------------------------- #
def run_fig4_statistics(
    environment: Optional[ExperimentEnvironment] = None,
    page_size: int = 10,
) -> Dict[str, object]:
    """Reproduce the Fig. 4 statistics panel: query cost and processing time
    of one Zillow reranking request with ``price - 0.3 squarefeet``.

    The paper reports 27 queries taking 33 seconds against the live site; the
    simulation reports the same two numbers under its ~1 s/query latency
    model.
    """
    environment = environment or ExperimentEnvironment()
    schema = environment.housing_schema
    ranking = LinearRankingFunction(
        {"price": 1.0, "squarefeet": -0.3},
        normalizer=MinMaxNormalizer.from_schema(schema, ["price", "squarefeet"]),
    )
    reranker = environment.make_reranker("zillow")
    stream = reranker.rerank(SearchQuery.everything(), ranking, algorithm=Algorithm.RERANK)
    rows = stream.next_page(page_size)
    snapshot = stream.statistics.snapshot()
    return {
        "ranking": ranking.describe(),
        "page_size": page_size,
        "rows_returned": len(rows),
        "external_queries": snapshot["external_queries"],
        "processing_seconds": snapshot["processing_seconds"],
        "sequential_equivalent_seconds": snapshot["simulated_seconds"]
        if not environment.rerank_config.enable_parallel
        else None,
        "paper_reference": {"external_queries": 27, "processing_seconds": 33.0},
    }


# --------------------------------------------------------------------------- #
# SC-1D / SC-MD — algorithm comparison over the demonstration scenarios
# --------------------------------------------------------------------------- #
def run_scenario_suite(
    scenarios: Sequence[Scenario],
    algorithms: Sequence[Algorithm],
    environment: Optional[ExperimentEnvironment] = None,
    depth: int = 5,
) -> List[ExperimentResult]:
    """Run every (scenario, algorithm) combination and collect the results."""
    environment = environment or ExperimentEnvironment()
    results = []
    for scenario in scenarios:
        for algorithm in algorithms:
            if scenario.dimensionality == 1 and algorithm is Algorithm.TA:
                continue
            reranker = environment.make_reranker(scenario.source)
            results.append(_run_cell(reranker, scenario, algorithm, depth))
    return results


def default_1d_scenarios(environment: ExperimentEnvironment) -> List[Scenario]:
    """The 1D demonstration scenarios for both sources."""
    return bluenile_scenarios_1d(environment.diamond_schema) + zillow_scenarios_1d(
        environment.housing_schema
    )


def default_md_scenarios(environment: ExperimentEnvironment) -> List[Scenario]:
    """The MD demonstration scenarios for both sources."""
    return bluenile_scenarios_md(environment.diamond_schema) + zillow_scenarios_md(
        environment.housing_schema
    )


def summarize_by_correlation(results: Sequence[ExperimentResult]) -> Dict[str, Dict[str, float]]:
    """Mean query cost per (correlation class, algorithm) — the shape of the
    paper's 1D/MD narrative (binary/rerank win when the user ranking fights
    the hidden ranking)."""
    grouped: Dict[str, Dict[str, List[int]]] = {}
    for result in results:
        grouped.setdefault(result.correlation, {}).setdefault(result.algorithm, []).append(
            result.external_queries
        )
    return {
        correlation: {
            algorithm: pystats.mean(queries) for algorithm, queries in by_algorithm.items()
        }
        for correlation, by_algorithm in grouped.items()
    }


# --------------------------------------------------------------------------- #
# SC-IDX — on-the-fly indexing amortization
# --------------------------------------------------------------------------- #
def run_onthefly_indexing(
    environment: Optional[ExperimentEnvironment] = None,
    repetitions: int = 5,
    depth: int = 10,
) -> Dict[str, object]:
    """Reproduce the on-the-fly indexing scenario.

    The workload is the one the paper calls out: ranking Blue Nile stones by
    ``length_width_ratio`` with a filter that puts the big ``= 1.0`` value
    cluster right at the front of the answer.  Serving the answer requires
    crawling that cluster (it is larger than ``system-k``), so

    * 1D-RERANK — run repeatedly against a *shared* reranker — pays the crawl
      once, indexes the region, and answers later repetitions almost for free,
      while
    * 1D-BINARY — which never remembers — re-crawls on every repetition.

    The returned per-repetition query costs are the series the demo tracks
    ("after issuing multiple queries, we will track the performance of
    (1D/MD)-RERANK in terms of both processing time and the number of
    submitted queries").
    """
    environment = environment or ExperimentEnvironment()
    ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
    # The lower bound 0.995 puts the big 1.0 value cluster right at the head of
    # the answer (measurements are reported with two decimals, so the first
    # matching value is exactly 1.0).
    query = SearchQuery.build(ranges={"length_width_ratio": (0.995, 1.6)})

    # The rerank feed is ablated: it would replay every repetition for free
    # and hide the dense index's amortization, which is what this measures.
    shared_rerank = environment.make_reranker(
        "bluenile", replace(environment.rerank_config, enable_rerank_feed=False)
    )
    rerank_costs: List[int] = []
    rerank_seconds: List[float] = []
    for _ in range(repetitions):
        stream = shared_rerank.rerank(query, ranking, algorithm=Algorithm.RERANK)
        stream.top(depth)
        rerank_costs.append(stream.statistics.external_queries)
        rerank_seconds.append(stream.statistics.processing_seconds)

    binary_costs: List[int] = []
    binary_seconds: List[float] = []
    for _ in range(repetitions):
        fresh_binary = environment.make_reranker("bluenile")
        stream = fresh_binary.rerank(query, ranking, algorithm=Algorithm.BINARY)
        stream.top(depth)
        binary_costs.append(stream.statistics.external_queries)
        binary_seconds.append(stream.statistics.processing_seconds)

    return {
        "ranking": ranking.describe(),
        "query": query.describe(),
        "repetitions": repetitions,
        "depth": depth,
        "rerank_costs": rerank_costs,
        "binary_costs": binary_costs,
        "rerank_seconds": rerank_seconds,
        "binary_seconds": binary_seconds,
        "rerank_amortized": pystats.mean(rerank_costs),
        "binary_amortized": pystats.mean(binary_costs),
        "rerank_warm_cost": pystats.mean(rerank_costs[1:]) if repetitions > 1 else None,
        "index_regions": shared_rerank.dense_index.region_count(),
        "index_tuples": shared_rerank.dense_index.tuple_count(),
    }


# --------------------------------------------------------------------------- #
# SC-CACHE — multi-session savings from the shared query-result cache
# --------------------------------------------------------------------------- #
def run_cache_reuse(
    environment: Optional[ExperimentEnvironment] = None,
    sessions: int = 4,
    depth: int = 10,
    algorithm: Algorithm = Algorithm.BINARY,
) -> Dict[str, Dict[str, object]]:
    """Measure the external-query savings of the shared result cache when
    several sessions run the same popular workload.

    For each source (diamonds and housing) the same *(filter, ranking)*
    request is served to ``sessions`` independent sessions twice: once through
    a reranker whose sessions share one :class:`QueryResultCache`, once with
    the cache disabled.  Both modes share their dense-region index across
    sessions (that is the reranker's normal behaviour), so the delta isolates
    the result cache itself.  The reranked output must be identical in both
    modes — the cache replays exact query answers, it never changes them.

    The default algorithm is BINARY: it is stateless across sessions (no
    dense-region index), so every session re-probes the same overlapping
    intervals — exactly the cross-user redundancy the cache converts into
    zero-round-trip hits.  Pass ``Algorithm.RERANK`` to measure the cache's
    *marginal* win on top of the shared dense index.
    """
    environment = environment or ExperimentEnvironment()
    payload: Dict[str, Dict[str, object]] = {}
    for source in SOURCES:
        scenario = DEMO_SCENARIOS[source][0](environment.source(source)[1])[0]
        outcomes: Dict[str, Dict[str, object]] = {}
        # Both modes ablate the rerank feed: with it on, sessions 2..N replay
        # the whole stream for free in either mode and the delta no longer
        # isolates the result cache.
        for mode, config in (
            ("cached", replace(environment.rerank_config, enable_rerank_feed=False)),
            (
                "uncached",
                replace(
                    environment.rerank_config,
                    enable_result_cache=False,
                    enable_rerank_feed=False,
                ),
            ),
        ):
            reranker = environment.make_reranker(source, config)
            costs: List[int] = []
            orders: List[List[object]] = []
            for _ in range(sessions):
                stream = reranker.rerank(
                    scenario.query, scenario.ranking, algorithm=algorithm
                )
                rows = stream.next_page(depth)
                costs.append(stream.statistics.external_queries)
                orders.append([row["id"] for row in rows])
            outcomes[mode] = {"costs": costs, "orders": orders}

        cached_total = sum(outcomes["cached"]["costs"])  # type: ignore[arg-type]
        uncached_total = sum(outcomes["uncached"]["costs"])  # type: ignore[arg-type]
        payload[source] = {
            "scenario": scenario.describe(),
            "algorithm": algorithm.value,
            "sessions": sessions,
            "depth": depth,
            "cached_costs": outcomes["cached"]["costs"],
            "uncached_costs": outcomes["uncached"]["costs"],
            "cached_total": cached_total,
            "uncached_total": uncached_total,
            "savings_fraction": (
                1.0 - cached_total / uncached_total if uncached_total else 0.0
            ),
            "orders_match": outcomes["cached"]["orders"] == outcomes["uncached"]["orders"],
        }
    return payload


def run_containment_reuse(
    environment: Optional[ExperimentEnvironment] = None,
    sessions: int = 4,
    depth: int = 10,
    algorithm: Algorithm = Algorithm.BINARY,
) -> Dict[str, Dict[str, object]]:
    """Measure the *additional* external-query savings of containment
    answering over the exact-match result cache.

    The workload models users refining a popular preset: every session runs
    the same scenario but with a progressively *narrower* filter window, so
    no two sessions issue byte-identical queries and the exact-match cache
    barely helps.  Containment answering converts the nesting into zero-cost
    answers: a covering (valid/underflow) probe stored by a wider session
    provably holds every tuple a narrower session's probe can match.

    Both modes run with the result cache *on*; the delta isolates containment
    itself.  The reranked output must be identical in both modes — a derived
    answer is byte-identical to a fresh engine query, never an approximation.
    """
    environment = environment or ExperimentEnvironment()
    payload: Dict[str, Dict[str, object]] = {}
    for source in SOURCES:
        schema = environment.source(source)[1]
        scenario = DEMO_SCENARIOS[source][0](schema)[0]
        # Filter on a numeric attribute the ranking does not use, so the
        # narrowing windows do not change which probes the algorithm needs —
        # only whether the cache can answer them.
        ranking_attributes = set(scenario.ranking.attributes)
        attribute = next(
            name for name in schema.rankable_names if name not in ranking_attributes
        )
        lower, upper = schema.domain_bounds(attribute)
        span = upper - lower

        def session_query(index: int) -> SearchQuery:
            shrink = (0.15 + 0.03 * index) * span
            return scenario.query.with_range(
                RangePredicate(attribute, lower + shrink, upper - shrink)
            )

        outcomes: Dict[str, Dict[str, object]] = {}
        # Feed ablated for the same reason as in run_cache_reuse; the nested
        # windows would not share feeds anyway (distinct canonical queries),
        # but keeping both modes feed-free makes the isolation explicit.
        for mode, config in (
            ("containment", replace(environment.rerank_config, enable_rerank_feed=False)),
            (
                "exact",
                replace(
                    environment.rerank_config,
                    result_cache_containment=False,
                    enable_rerank_feed=False,
                ),
            ),
        ):
            reranker = environment.make_reranker(source, config)
            costs: List[int] = []
            contained: List[int] = []
            orders: List[List[object]] = []
            for index in range(sessions):
                stream = reranker.rerank(
                    session_query(index), scenario.ranking, algorithm=algorithm
                )
                rows = stream.next_page(depth)
                costs.append(stream.statistics.external_queries)
                contained.append(stream.statistics.contained_answers)
                orders.append([row["id"] for row in rows])
            outcomes[mode] = {"costs": costs, "contained": contained, "orders": orders}

        containment_total = sum(outcomes["containment"]["costs"])  # type: ignore[arg-type]
        exact_total = sum(outcomes["exact"]["costs"])  # type: ignore[arg-type]
        payload[source] = {
            "scenario": scenario.describe(),
            "algorithm": algorithm.value,
            "filter_attribute": attribute,
            "sessions": sessions,
            "depth": depth,
            "containment_costs": outcomes["containment"]["costs"],
            "exact_costs": outcomes["exact"]["costs"],
            "contained_answers": outcomes["containment"]["contained"],
            "containment_total": containment_total,
            "exact_total": exact_total,
            "additional_savings_fraction": (
                1.0 - containment_total / exact_total if exact_total else 0.0
            ),
            "orders_match": (
                outcomes["containment"]["orders"] == outcomes["exact"]["orders"]
            ),
        }
    return payload


# --------------------------------------------------------------------------- #
# SC-FEED — cross-session Get-Next sharing through the rerank feed
# --------------------------------------------------------------------------- #
def _page_through(
    reranker: QueryReranker,
    query: SearchQuery,
    ranking: UserRankingFunction,
    algorithm: Algorithm,
    pages: int,
    page_size: int,
) -> Dict[str, object]:
    """Serve one session: ``pages`` pages of ``page_size``, with per-page
    latency (simulated + wall) and wall-only timings."""
    stream = reranker.rerank(query, ranking, algorithm=algorithm)
    page_rows: List[List[Dict[str, object]]] = []
    page_seconds: List[float] = []
    page_wall_seconds: List[float] = []
    for _ in range(pages):
        before = stream.statistics.processing_seconds
        started = time.perf_counter()
        rows = stream.next_page(page_size)
        page_wall_seconds.append(time.perf_counter() - started)
        page_seconds.append(stream.statistics.processing_seconds - before)
        page_rows.append([dict(row) for row in rows])
    snapshot = stream.statistics.snapshot()
    stream.close()
    return {
        "pages": page_rows,
        "page_seconds": page_seconds,
        "page_wall_seconds": page_wall_seconds,
        "external_queries": snapshot["external_queries"],
        "feed_hits": snapshot["feed_hits"],
        "feed_replayed_tuples": snapshot["feed_replayed_tuples"],
        "feed_leader_advances": snapshot["feed_leader_advances"],
    }


def run_feed_reuse(
    environment: Optional[ExperimentEnvironment] = None,
    sessions: int = 6,
    pages: int = 3,
    page_size: int = 5,
    algorithm: Algorithm = Algorithm.RERANK,
) -> Dict[str, Dict[str, object]]:
    """Measure the shared rerank feed on a popular-function workload.

    For each source, ``sessions`` independent sessions ask for the identical
    popular ranking function (the list the QR2 UI funnels users toward) and
    page through the answer.  With the feed on, session 1 is the leader (it
    pays the algorithm work and the external queries) and sessions 2..N are
    followers replaying the verified prefix: **zero** external queries and a
    page latency that is pure replay.  A feed-disabled control run of the
    same workload must produce byte-identical pages — the feed replays the
    canonical stream, it never changes it.
    """
    environment = environment or ExperimentEnvironment()
    from repro.service.popular import popular_function
    from repro.service.sliders import ranking_from_sliders

    popular = {"bluenile": "best_value_carat", "zillow": "best_case_price_sqft"}
    payload: Dict[str, Dict[str, object]] = {}
    for source in SOURCES:
        function = popular_function(source, popular[source])
        ranking = ranking_from_sliders(function.sliders, environment.source(source)[1])
        query = SearchQuery.everything()
        modes: Dict[str, Dict[str, object]] = {}
        for mode, config in (
            ("feed", environment.rerank_config),
            ("nofeed", replace(environment.rerank_config, enable_rerank_feed=False)),
        ):
            reranker = environment.make_reranker(source, config)
            outcomes = [
                _page_through(reranker, query, ranking, algorithm, pages, page_size)
                for _ in range(sessions)
            ]
            store = reranker.feed_store
            modes[mode] = {
                "sessions": outcomes,
                "feed_store": store.snapshot() if store is not None else None,
            }
            reranker.close()

        leader = modes["feed"]["sessions"][0]  # type: ignore[index]
        followers = modes["feed"]["sessions"][1:]  # type: ignore[index]
        leader_median = pystats.median(leader["page_seconds"])
        follower_page_seconds = [s for f in followers for s in f["page_seconds"]]
        follower_median = pystats.median(follower_page_seconds)
        leader_wall_median = pystats.median(leader["page_wall_seconds"])
        follower_wall_median = pystats.median(
            [s for f in followers for s in f["page_wall_seconds"]]
        )
        payload[source] = {
            "popular_function": function.name,
            "ranking": ranking.describe(),
            "algorithm": algorithm.value,
            "sessions": sessions,
            "pages": pages,
            "page_size": page_size,
            "leader_queries": leader["external_queries"],
            "follower_queries": [f["external_queries"] for f in followers],
            "nofeed_queries": [
                s["external_queries"]
                for s in modes["nofeed"]["sessions"]  # type: ignore[index]
            ],
            "leader_median_page_seconds": leader_median,
            "follower_median_page_seconds": follower_median,
            "median_speedup": (
                leader_median / follower_median if follower_median > 0 else float("inf")
            ),
            "leader_median_page_wall_seconds": leader_wall_median,
            "follower_median_page_wall_seconds": follower_wall_median,
            "wall_speedup": (
                leader_wall_median / follower_wall_median
                if follower_wall_median > 0
                else float("inf")
            ),
            "replayed_tuples": sum(f["feed_replayed_tuples"] for f in followers),
            "pages_match": (
                [s["pages"] for s in modes["feed"]["sessions"]]  # type: ignore[index]
                == [s["pages"] for s in modes["nofeed"]["sessions"]]  # type: ignore[index]
            ),
            "feed_store": modes["feed"]["feed_store"],
        }
    return payload


def _random_request(
    rng: random.Random, schema: Schema
) -> Tuple[UserRankingFunction, Algorithm, SearchQuery]:
    """Draw one request against a source's ``schema``: a ranking function
    (1D or weighted MD), an algorithm that serves it, and a filter window on
    one rankable attribute.  The differentials draw the source (and their own
    topology) first; the order of draws here is part of their seeds."""
    rankable = list(schema.rankable_names)
    ranking: UserRankingFunction
    if rng.random() < 0.5:
        ranking = SingleAttributeRanking(
            rng.choice(rankable), ascending=rng.random() < 0.5
        )
        algorithm = rng.choice([Algorithm.BINARY, Algorithm.RERANK])
    else:
        chosen = rng.sample(rankable, min(2, len(rankable)))
        weights = {name: rng.choice([-1.0, -0.5, 0.5, 1.0]) for name in chosen}
        ranking = LinearRankingFunction(
            weights, normalizer=MinMaxNormalizer.from_schema(schema, chosen)
        )
        algorithm = rng.choice([Algorithm.RERANK, Algorithm.TA])
    filter_attribute = rng.choice(rankable)
    lower, upper = schema.domain_bounds(filter_attribute)
    span = upper - lower
    low = lower + rng.uniform(0.0, 0.3) * span
    high = upper - rng.uniform(0.0, 0.3) * span
    return ranking, algorithm, SearchQuery.build(ranges={filter_attribute: (low, high)})


def run_feed_differential(
    environment: Optional[ExperimentEnvironment] = None,
    trials: int = 4,
    sessions: int = 3,
    pages: int = 2,
    page_size: int = 5,
    seed: int = 20180416,
) -> Dict[str, object]:
    """Randomized differential: feed-enabled runs must be byte-identical to
    feed-disabled runs.

    Each trial draws a random source, filter window, ranking function (1D or
    slider-style MD), and algorithm, then serves the same request to
    ``sessions`` sessions under both configurations.  Every page of every
    session must match exactly — replaying a verified prefix is replay, not
    approximation — and the follower sessions must not issue a single
    external query.
    """
    environment = environment or ExperimentEnvironment()
    rng = random.Random(seed)
    trials_payload: List[Dict[str, object]] = []
    all_match = True
    for index in range(trials):
        source = rng.choice(SOURCES)
        ranking, algorithm, query = _random_request(
            rng, environment.source(source)[1]
        )

        results: Dict[str, List[Dict[str, object]]] = {}
        for mode, config in (
            ("feed", environment.rerank_config),
            ("nofeed", replace(environment.rerank_config, enable_rerank_feed=False)),
        ):
            reranker = environment.make_reranker(source, config)
            results[mode] = [
                _page_through(reranker, query, ranking, algorithm, pages, page_size)
                for _ in range(sessions)
            ]
            reranker.close()
        pages_match = [s["pages"] for s in results["feed"]] == [
            s["pages"] for s in results["nofeed"]
        ]
        follower_queries = [s["external_queries"] for s in results["feed"][1:]]
        all_match = all_match and pages_match and not any(follower_queries)
        trials_payload.append(
            {
                "trial": index,
                "source": source,
                "algorithm": algorithm.value,
                "ranking": ranking.describe(),
                "query": query.describe(),
                "pages_match": pages_match,
                "leader_queries": results["feed"][0]["external_queries"],
                "follower_queries": follower_queries,
                "nofeed_queries": [s["external_queries"] for s in results["nofeed"]],
            }
        )
    return {"trials": trials_payload, "all_match": all_match}


# --------------------------------------------------------------------------- #
# SC-SHARD — federated sharding: scatter-gather cost and byte-identity
# --------------------------------------------------------------------------- #
def run_shard_scatter(
    environment: Optional[ExperimentEnvironment] = None,
    shard_counts: Sequence[int] = (2, 4),
    depth: int = 10,
) -> Dict[str, Dict[str, object]]:
    """Measure the federated scatter-gather path against the unsharded
    reference on a representative workload per source.

    For each source the first 1D and first MD demonstration scenarios run
    against the unsharded database, then against federations of
    ``shard_counts`` shards under both partitioning schemes (hidden rank
    round-robin and ``price`` attribute ranges).  The unmodified algorithms
    query the facade, so the session-level external query count is
    *identical* to unsharded (ratio 1.0); the facade fans each query out
    below the interface.

    Every run must produce byte-identical pages.  A pruning probe (attribute
    sharding + a filter window inside one shard's partition) demonstrates the
    facade skipping shards whose partition cannot intersect the query.
    """
    environment = environment or ExperimentEnvironment()
    # Feed ablated: replay would hide the scatter cost being measured.
    config = replace(environment.rerank_config, enable_rerank_feed=False)
    payload: Dict[str, Dict[str, object]] = {}
    for source in SOURCES:
        catalog, schema, _, _ = environment.source(source)
        onedim, multidim = DEMO_SCENARIOS[source]
        scenarios = {"1d": onedim(schema)[0], "md": multidim(schema)[0]}
        workloads: Dict[str, object] = {}
        for label, scenario in scenarios.items():
            algorithm = Algorithm.RERANK
            reference = environment.make_reranker(source, config)
            ref_stream = reference.rerank(scenario.query, scenario.ranking, algorithm=algorithm)
            ref_rows = [dict(row) for row in ref_stream.top(depth)]
            ref_queries = ref_stream.statistics.external_queries
            runs: List[Dict[str, object]] = []
            for count in shard_counts:
                for by in ("rank", "price"):
                    reranker = environment.make_federated_reranker(
                        source, count, by=by, config=config
                    )
                    stream = reranker.rerank(
                        scenario.query, scenario.ranking, algorithm=algorithm
                    )
                    rows = [dict(row) for row in stream.top(depth)]
                    queries = stream.statistics.external_queries
                    stream.close()
                    federation = reranker.federation
                    assert federation is not None
                    described = federation.describe()
                    runs.append(
                        {
                            "shards": count,
                            "by": by,
                            "pages_match": rows == ref_rows,
                            "external_queries": queries,
                            "query_ratio": queries / max(ref_queries, 1),
                            "scatter_queries": described["scatter_queries"],
                            "shard_queries": described["shard_queries"],
                            "pruned_shard_queries": described["pruned_shard_queries"],
                            "fan_out": described["fan_out"],
                            "merge": described["merge"],
                        }
                    )
            workloads[label] = {
                "scenario": scenario.describe(),
                "reference_queries": ref_queries,
                "runs": runs,
                "all_pages_match": all(run["pages_match"] for run in runs),
                "max_scatter_ratio": max(run["query_ratio"] for run in runs),
            }

        # Pruning probe: shard by price, then filter to the bottom decile of
        # the *data* (not the domain, whose bounds sit far above the value
        # mass) — only the shards whose partitions intersect the window may
        # be queried.
        prices = sorted(float(row["price"]) for row in catalog.to_rows())
        probe_query = SearchQuery.build(
            ranges={"price": (prices[0], prices[len(prices) // 10])}
        )
        probe_ranking = SingleAttributeRanking("price", ascending=True)
        probe_reference = environment.make_reranker(source, config)
        probe_ref_stream = probe_reference.rerank(
            probe_query, probe_ranking, algorithm=Algorithm.RERANK
        )
        probe_ref_rows = [dict(row) for row in probe_ref_stream.top(depth)]
        probe_reranker = environment.make_federated_reranker(
            source, max(shard_counts), by="price", config=config
        )
        probe_stream = probe_reranker.rerank(
            probe_query, probe_ranking, algorithm=Algorithm.RERANK
        )
        probe_rows = [dict(row) for row in probe_stream.top(depth)]
        probe_federation = probe_reranker.federation
        assert probe_federation is not None
        probe_described = probe_federation.describe()
        payload[source] = {
            "workloads": workloads,
            "pruning_probe": {
                "query": probe_query.describe(),
                "shards": max(shard_counts),
                "pages_match": probe_rows == probe_ref_rows,
                "pruned_shard_queries": probe_described["pruned_shard_queries"],
                "shard_queries": probe_described["shard_queries"],
                "fan_out": probe_described["fan_out"],
            },
        }
    return payload


def run_shard_differential(
    environment: Optional[ExperimentEnvironment] = None,
    trials: int = 6,
    pages: int = 2,
    page_size: int = 5,
    seed: int = 20180612,
) -> Dict[str, object]:
    """Randomized differential: sharded federations must reproduce the
    unsharded engine byte for byte.

    Each trial draws a random source, shard count (2 or 4), partitioning
    scheme, filter window, ranking function (1D or weighted MD), and
    algorithm, then pages through the answer on the unsharded reference and
    on the federation.  Every page of every run must match exactly — same
    tuples, same emission order, same row payloads — within the 1.5×
    external-query budget (it is exactly 1.0×: the algorithms cannot see the
    shard layer).
    """
    environment = environment or ExperimentEnvironment()
    rng = random.Random(seed)
    config = replace(environment.rerank_config, enable_rerank_feed=False)
    trials_payload: List[Dict[str, object]] = []
    all_match = True
    within_budget = True
    max_scatter_ratio = 0.0
    for index in range(trials):
        source = rng.choice(SOURCES)
        shards = rng.choice([2, 4])
        by = rng.choice(["rank", "price"])
        ranking, algorithm, query = _random_request(
            rng, environment.source(source)[1]
        )

        reference = environment.make_reranker(source, config)
        ref = _page_through(reference, query, ranking, algorithm, pages, page_size)
        reranker = environment.make_federated_reranker(
            source, shards, by=by, config=config
        )
        scatter = _page_through(reranker, query, ranking, algorithm, pages, page_size)
        pages_match = ref["pages"] == scatter["pages"]
        scatter_ratio = int(scatter["external_queries"]) / max(
            int(ref["external_queries"]), 1
        )
        all_match = all_match and pages_match
        within_budget = within_budget and scatter_ratio <= 1.5
        max_scatter_ratio = max(max_scatter_ratio, scatter_ratio)
        trials_payload.append(
            {
                "trial": index,
                "source": source,
                "shards": shards,
                "by": by,
                "algorithm": algorithm.value,
                "ranking": ranking.describe(),
                "query": query.describe(),
                "pages_match": pages_match,
                "reference_queries": ref["external_queries"],
                "scatter_queries": scatter["external_queries"],
                "scatter_ratio": scatter_ratio,
            }
        )
    return {
        "trials": trials_payload,
        "all_match": all_match,
        "scatter_within_budget": within_budget,
        "max_scatter_ratio": max_scatter_ratio,
        "budget": 1.5,
    }


# --------------------------------------------------------------------------- #
# SC-BW — best versus worst cases
# --------------------------------------------------------------------------- #
def run_best_worst_cases(
    environment: Optional[ExperimentEnvironment] = None,
    depth: int = 10,
) -> Dict[str, object]:
    """Reproduce the best/worst-case demonstration.

    Worst case: ``price + length_width_ratio`` on Blue Nile — ~20 % of the
    stones share ``length_width_ratio = 1.0``, so walking the answer in
    ``length_width_ratio`` order (which MD-TA's per-attribute sorted access
    does, exactly like the paper's system) requires crawling that value group:
    expensive the first time, cheap once the on-the-fly index holds it.
    Best case: ``price + squarefeet`` on Zillow — the function agrees with the
    hidden ranking and with the data's correlation, so few queries suffice.
    """
    environment = environment or ExperimentEnvironment()
    diamond = environment.diamond_schema
    housing = environment.housing_schema

    worst_ranking = LinearRankingFunction(
        {"price": 1.0, "length_width_ratio": 1.0},
        normalizer=MinMaxNormalizer.from_schema(diamond, ["price", "length_width_ratio"]),
    )
    best_ranking = LinearRankingFunction(
        {"price": 1.0, "squarefeet": 1.0},
        normalizer=MinMaxNormalizer.from_schema(housing, ["price", "squarefeet"]),
    )

    def _run(reranker: QueryReranker, query, ranking, algorithm: Algorithm):
        stream = reranker.rerank(query, ranking, algorithm=algorithm)
        stream.top(depth)
        return {
            "queries": stream.statistics.external_queries,
            "seconds": round(stream.statistics.processing_seconds, 2),
            "dense_regions_built": stream.statistics.dense_regions_built,
            "dense_index_hits": stream.statistics.dense_index_hits,
        }

    # Feed ablated on the shared reranker: the warm TA run measures the
    # dense index's amortization, not a feed replay.
    worst_reranker = environment.make_reranker(
        "bluenile", replace(environment.rerank_config, enable_rerank_feed=False)
    )
    worst_cold = _run(worst_reranker, SearchQuery.everything(), worst_ranking, Algorithm.TA)
    worst_warm = _run(worst_reranker, SearchQuery.everything(), worst_ranking, Algorithm.TA)
    worst_rerank = _run(
        environment.make_reranker("bluenile"),
        SearchQuery.everything(),
        worst_ranking,
        Algorithm.RERANK,
    )

    best_reranker = environment.make_reranker("zillow")
    best_ta = _run(best_reranker, SearchQuery.everything(), best_ranking, Algorithm.TA)
    best_rerank = _run(
        environment.make_reranker("zillow"),
        SearchQuery.everything(),
        best_ranking,
        Algorithm.RERANK,
    )

    lwr_cluster = environment.bluenile.value_multiplicity("length_width_ratio").get(1.0, 0)
    return {
        "worst_case": {
            "ranking": worst_ranking.describe(),
            "ta_cold": worst_cold,
            "ta_warm": worst_warm,
            "rerank": worst_rerank,
            "lwr_cluster_size": lwr_cluster,
            "lwr_cluster_fraction": lwr_cluster / environment.bluenile.size,
        },
        "best_case": {
            "ranking": best_ranking.describe(),
            "ta": best_ta,
            "rerank": best_rerank,
        },
        "depth": depth,
    }
