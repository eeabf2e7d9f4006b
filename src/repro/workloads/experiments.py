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
dictionaries).  ``tests/workloads/paper_currency.py`` is their one presenter:
it runs each driver over one small environment and pins what every cell paid
in ``paper_currency.txt``.
"""

from __future__ import annotations

import statistics as pystats
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DatabaseConfig, RerankConfig
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.core.stats import RerankStatistics
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.dataset.housing import HousingCatalogConfig, generate_housing_catalog, housing_schema
from repro.dataset.schema import Schema
from repro.dataset.table import ColumnTable
from repro.webdb.build import build_source
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.latency import LatencyModel
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking, SystemRankingFunction
from repro.webdb.stack import SourceStack
from repro.workloads.scenarios import (
    Scenario,
    bluenile_scenarios_1d,
    bluenile_scenarios_md,
    zillow_scenarios_1d,
    zillow_scenarios_md,
)

@dataclass
class ExperimentResult:
    """Outcome of running one (scenario, algorithm) cell."""

    scenario: str
    algorithm: str
    tuples_returned: int
    external_queries: int
    parallel_queries: int
    round_trips: int
    simulated_seconds: float


def paid(statistics: RerankStatistics) -> Dict[str, object]:
    """What one request paid in the paper's two currencies: external queries
    (``parallel_queries`` of them in parallel groups, all of them in
    ``round_trips`` iterations) and simulated seconds, which are a function
    of the seed — unlike ``processing_seconds``, which adds local wall
    time."""
    return {
        "external_queries": statistics.external_queries,
        "parallel_queries": statistics.parallel_queries,
        "round_trips": statistics.iterations,
        "simulated_seconds": statistics.simulated_seconds,
    }


@dataclass
class ExperimentEnvironment:
    """Shared simulated environment: both web databases plus configurations.

    ``catalog_scale`` shrinks the catalogs (1.0 is the full default size;
    the pinned paper table, ``tests/workloads/paper_currency.txt``, uses
    0.08).
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
        self.diamond_schema = diamond_schema()
        self.housing_schema = housing_schema()
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
        """A fresh reranker (fresh dense-region index) over a fresh source
        stack on a source's database, as the service stacks its sources."""
        return QueryReranker(
            SourceStack(self.database(source)), config=config or self.rerank_config
        )

    def make_federated_reranker(
        self, source: str, shards: int, by: str = "rank"
    ) -> QueryReranker:
        """A fresh reranker over a fresh federated facade of the *same*
        catalog a source's unsharded database serves — the precondition for
        byte-identical differentials between the two."""
        catalog, schema, ranking, _ = self.source(source)
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
        )
        return QueryReranker(federation, config=self.rerank_config)


def _run_cell(
    reranker: QueryReranker,
    scenario: Scenario,
    algorithm: Algorithm,
    depth: int,
) -> ExperimentResult:
    """Fetch the top-``depth`` answers of one scenario with one algorithm."""
    stream = reranker.rerank(scenario.query, scenario.ranking, algorithm=algorithm)
    stream.top(depth)
    statistics = stream.statistics
    return ExperimentResult(
        scenario.name, algorithm.value, statistics.tuples_returned, **paid(statistics)
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
        statistics = stream.statistics
        output[label] = {
            **paid(statistics),
            "parallel_fraction": statistics.parallel_fraction,
            "parallel_query_fraction": statistics.parallel_query_fraction,
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
    simulation reports the query count and the simulated seconds of its
    ~1 s/query latency model (a parallel group costs one round trip).
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
    return {
        **paid(stream.statistics),
        "rows_returned": len(rows),
        "paper_reference": {"external_queries": 27, "seconds": 33.0},
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

    def _run(reranker: QueryReranker, algorithm: Algorithm) -> Dict[str, object]:
        stream = reranker.rerank(query, ranking, algorithm=algorithm)
        stream.top(depth)
        return paid(stream.statistics)

    rerank_runs = [_run(shared_rerank, Algorithm.RERANK) for _ in range(repetitions)]
    binary_runs = [
        _run(environment.make_reranker("bluenile"), Algorithm.BINARY)
        for _ in range(repetitions)
    ]
    rerank_costs = [run["external_queries"] for run in rerank_runs]
    binary_costs = [run["external_queries"] for run in binary_runs]
    return {
        "rerank_runs": rerank_runs,
        "binary_runs": binary_runs,
        "rerank_costs": rerank_costs,
        "binary_costs": binary_costs,
        "binary_amortized": pystats.mean(binary_costs),
        "rerank_warm_cost": pystats.mean(rerank_costs[1:]) if repetitions > 1 else None,
        "index_regions": shared_rerank.dense_index.region_count(),
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
        return paid(stream.statistics)

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
            "ta_cold": worst_cold,
            "ta_warm": worst_warm,
            "rerank": worst_rerank,
            "lwr_cluster_size": lwr_cluster,
        },
        "best_case": {"ta": best_ta, "rerank": best_rerank},
    }
