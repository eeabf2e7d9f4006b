"""The paper's own currency: external queries per scenario and algorithm.

Runs the six drivers of :mod:`repro.workloads.experiments` at their default
depths over one small fixed environment, plus the MD suite over a 4-shard
rank-partitioned federation (``sc_fed``, result cache on), and lists
what each cell paid.
``paper_currency.txt`` beside this file is that list; it is regenerated,
never edited::

    PYTHONPATH=src python -m tests.workloads.paper_currency

``test_paper_currency.py`` asserts the table by exact equality, so a diff
that changes what QR2 spends has to say so.  Where a driver carries the
paper's own figure (``paper_reference``), it is printed beside the count.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.reranker import Algorithm
from repro.workloads.experiments import (
    ExperimentEnvironment,
    default_1d_scenarios,
    default_md_scenarios,
    run_best_worst_cases,
    run_fig2_parallelism,
    run_fig4_statistics,
    run_onthefly_indexing,
    run_scenario_suite,
)

TABLE = Path(__file__).with_name("paper_currency.txt")
HEADER = ("driver", "scenario", "algorithm", "external_queries", "paper_reference")

#: ``(driver, scenario, algorithm, external queries, paper's figure)``.
Row = Tuple[str, str, str, int, Optional[int]]


def environment() -> ExperimentEnvironment:
    """The tier-1 experiment environment (small catalogs, k = 10)."""
    return ExperimentEnvironment(catalog_scale=0.08, system_k=10, latency_seconds=1.0)


def measure() -> List[Row]:
    """Every driver's cells, in a fixed order."""
    env = environment()
    rows: List[Row] = []
    for label, payload in run_fig2_parallelism(env).items():
        rows.append(("fig2", label, Algorithm.RERANK.value, int(payload["queries"]), None))
    fig4 = run_fig4_statistics(env)
    rows.append(
        (
            "fig4",
            "zillow_price_squarefeet",
            Algorithm.RERANK.value,
            int(fig4["external_queries"]),
            fig4["paper_reference"]["external_queries"],
        )
    )
    for driver, scenarios, algorithms in (
        ("sc_1d", default_1d_scenarios(env), [Algorithm.BASELINE, Algorithm.BINARY, Algorithm.RERANK]),
        ("sc_md", default_md_scenarios(env), list(Algorithm)),
    ):
        for result in run_scenario_suite(scenarios, algorithms, env):
            rows.append((driver, result.scenario, result.algorithm, result.external_queries, None))
    for scenario in default_md_scenarios(env):
        for algorithm in Algorithm:
            reranker = env.make_federated_reranker(scenario.source, shards=4)
            stream = reranker.rerank(scenario.query, scenario.ranking, algorithm=algorithm)
            stream.top(5)
            queries = int(stream.statistics.snapshot()["external_queries"])
            rows.append(("sc_fed", scenario.name, algorithm.value, queries, None))
    indexing = run_onthefly_indexing(env)
    for algorithm in ("rerank", "binary"):
        for repetition, cost in enumerate(indexing[f"{algorithm}_costs"], start=1):
            rows.append(("sc_idx", f"repetition_{repetition}", algorithm, int(cost), None))
    cases = run_best_worst_cases(env)
    for case, runs in (
        ("worst_case", ("ta_cold", "ta_warm", "rerank")),
        ("best_case", ("ta", "rerank")),
    ):
        for run in runs:
            rows.append(("sc_bw", case, run, int(cases[case][run]["queries"]), None))
    return rows


def render(rows: List[Row]) -> str:
    cells = [HEADER] + [
        (driver, scenario, algorithm, str(queries), "-" if paper is None else str(paper))
        for driver, scenario, algorithm, queries, paper in rows
    ]
    widths = [max(len(row[column]) for row in cells) for column in range(len(HEADER))]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in cells
    )


def read_table(path: Path = TABLE) -> List[Row]:
    rows: List[Row] = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        driver, scenario, algorithm, queries, paper = line.split()
        rows.append((driver, scenario, algorithm, int(queries), None if paper == "-" else int(paper)))
    return rows


if __name__ == "__main__":
    TABLE.write_text(render(measure()), encoding="utf-8")
    print(TABLE.read_text(encoding="utf-8"), end="")
