"""The paper's numbers: what every scenario and algorithm pays, in one table.

Runs the six drivers of :mod:`repro.workloads.experiments` at their default
depths over one small fixed environment, plus the MD suite over a 4-shard
rank-partitioned federation (``sc_fed``) and sweeps of QR2's engineering
choices (``abl``), and lists what each cell paid:

* ``external_queries`` — the paper's metric;
* ``parallel_queries`` — how many of them went out in parallel groups (Fig. 2
  plots ``parallel_queries / external_queries``);
* ``round_trips`` — the iterations they went out in, one round trip each;
* ``simulated_seconds`` — the accounted latency of the seeded ~1 s/query
  model, a parallel group costing one round trip.  It is a function of the
  seed; each source draws from one latency stream, so a cell's seconds
  depend on the cells before it on that source;
* ``shard_queries`` — on the ``sc_fed`` rows, the queries the federation's
  shards answered (a scatter asks up to one per shard); ``-`` elsewhere.

``paper_currency.txt`` beside this file is that list; it is regenerated,
never edited::

    PYTHONPATH=src python -m tests.workloads.paper_currency

``test_paper_currency.py`` asserts the table by exact equality, so a diff
that changes what QR2 spends has to say so.  Where the paper gives its own
figure (``paper_reference``), it is printed beside the cell.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import List, Mapping, Optional, Tuple

from repro.config import RerankConfig
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.latency import LatencyModel
from repro.webdb.query import SearchQuery
from repro.workloads.experiments import (
    ExperimentEnvironment,
    default_1d_scenarios,
    default_md_scenarios,
    paid,
    run_best_worst_cases,
    run_fig2_parallelism,
    run_fig4_statistics,
    run_onthefly_indexing,
    run_scenario_suite,
)

TABLE = Path(__file__).with_name("paper_currency.txt")
HEADER = (
    "driver", "scenario", "algorithm", "external_queries", "parallel_queries",
    "round_trips", "simulated_seconds", "shard_queries", "paper_reference",
)

#: ``(driver, scenario, algorithm, external queries, parallel queries,
#: round trips, simulated seconds, shard queries, the paper's figure)``.
Row = Tuple[str, str, str, int, int, int, float, Optional[int], Optional[str]]

#: Fig. 2: the share of queries issued in parallel (3D: over 90 %; 2D: 44 of 45).
FIG2_PAPER = {"3d": "0.90 parallel", "2d": "0.97 parallel"}
#: Depth of every ablation request.
ABLATION_DEPTH = 10


def environment() -> ExperimentEnvironment:
    """The tier-1 experiment environment (small catalogs, k = 10)."""
    return ExperimentEnvironment(catalog_scale=0.08, system_k=10, latency_seconds=1.0)


def _row(driver: str, scenario: str, algorithm: str, cost: Mapping[str, object],
         paper: Optional[str] = None, shard_queries: Optional[int] = None) -> Row:
    """One cell from a :func:`~repro.workloads.experiments.paid` record."""
    return (
        driver, scenario, algorithm, int(cost["external_queries"]),
        int(cost["parallel_queries"]), int(cost["round_trips"]),
        round(float(cost["simulated_seconds"]), 3), shard_queries, paper,
    )


def _top(reranker: QueryReranker, query, ranking, algorithm: Algorithm, depth: int):
    stream = reranker.rerank(query, ranking, algorithm=algorithm)
    stream.top(depth)
    return paid(stream.statistics)


def ablations(env: ExperimentEnvironment) -> List[Row]:
    """``system_k`` swept for one fixed request, the paper's 2D Blue Nile
    function over the whole catalog; then the dense-region index's reuse:
    the SC-IDX request, cold then warm on one reranker with the rerank feed
    off, so the warm run reads the dense index rather than a feed replay."""
    ranking = LinearRankingFunction(
        {"price": 1.0, "carat": -0.5},
        normalizer=MinMaxNormalizer.from_schema(env.diamond_schema, ["price", "carat"]),
    )
    everything = SearchQuery.everything()
    rerank = Algorithm.RERANK.value
    rows: List[Row] = []
    for system_k in (10, 20, 50):
        database = HiddenWebDatabase(
            env.diamond_catalog,
            env.diamond_schema,
            env.diamond_ranking,
            system_k=system_k,
            latency=LatencyModel.accounted(env.latency_seconds, seed=env.seed),
            name="bluenile",
        )
        cost = _top(QueryReranker(database), everything, ranking, Algorithm.RERANK, ABLATION_DEPTH)
        rows.append(_row("abl", f"system_k_{system_k}", rerank, cost))
    lwr = SingleAttributeRanking("length_width_ratio", ascending=True)
    cluster = SearchQuery.build(ranges={"length_width_ratio": (0.995, 1.6)})
    reranker = QueryReranker(env.bluenile, config=RerankConfig(enable_rerank_feed=False))
    for run in ("cold", "warm"):
        cost = _top(reranker, cluster, lwr, Algorithm.RERANK, ABLATION_DEPTH)
        rows.append(_row("abl", f"dense_cluster_{run}", rerank, cost))
    return rows


def measure() -> List[Row]:
    """Every driver's cells, in a fixed order."""
    env = environment()
    rerank = Algorithm.RERANK.value
    rows: List[Row] = [
        _row("fig2", label, rerank, cost, FIG2_PAPER[label])
        for label, cost in run_fig2_parallelism(env).items()
    ]
    fig4 = run_fig4_statistics(env)
    paper = fig4["paper_reference"]
    rows.append(
        _row("fig4", "zillow_price_squarefeet", rerank, fig4,
             f"{paper['external_queries']} queries, {paper['seconds']:.0f} s")
    )
    for driver, scenarios, algorithms in (
        ("sc_1d", default_1d_scenarios(env), [Algorithm.BASELINE, Algorithm.BINARY, Algorithm.RERANK]),
        ("sc_md", default_md_scenarios(env), list(Algorithm)),
    ):
        for result in run_scenario_suite(scenarios, algorithms, env):
            rows.append(_row(driver, result.scenario, result.algorithm, asdict(result)))
    for scenario in default_md_scenarios(env):
        for algorithm in Algorithm:
            reranker = env.make_federated_reranker(scenario.source, shards=4)
            cost = _top(reranker, scenario.query, scenario.ranking, algorithm, 5)
            shard_queries = reranker.federation.shard_queries_issued()
            rows.append(
                _row("sc_fed", scenario.name, algorithm.value, cost, shard_queries=shard_queries)
            )
    indexing = run_onthefly_indexing(env)
    for algorithm in ("rerank", "binary"):
        for repetition, cost in enumerate(indexing[f"{algorithm}_runs"], start=1):
            rows.append(_row("sc_idx", f"repetition_{repetition}", algorithm, cost))
    cases = run_best_worst_cases(env)
    for case, runs in (
        ("worst_case", ("ta_cold", "ta_warm", "rerank")),
        ("best_case", ("ta", "rerank")),
    ):
        for run in runs:
            rows.append(_row("sc_bw", case, run, cases[case][run]))
    return rows + ablations(env)


def render(rows: List[Row]) -> str:
    cells = [HEADER] + [
        (*row[:3], str(row[3]), str(row[4]), str(row[5]), f"{row[6]:.3f}",
         "-" if row[7] is None else str(row[7]), "-" if row[8] is None else row[8])
        for row in rows
    ]
    widths = [max(len(row[column]) for row in cells) for column in range(len(HEADER))]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in cells
    )


def read_table(path: Path = TABLE) -> List[Row]:
    rows: List[Row] = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        driver, scenario, algorithm, queries, parallel, trips, seconds, shard, paper = (
            line.split(maxsplit=8)
        )
        rows.append(
            (driver, scenario, algorithm, int(queries), int(parallel), int(trips),
             float(seconds), None if shard == "-" else int(shard),
             None if paper == "-" else paper)
        )
    return rows


if __name__ == "__main__":
    TABLE.write_text(render(measure()), encoding="utf-8")
    print(TABLE.read_text(encoding="utf-8"), end="")
