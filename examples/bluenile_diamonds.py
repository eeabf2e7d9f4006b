#!/usr/bin/env python3
"""Blue Nile scenario walk-through: algorithm comparison, the paper's 3D
slider function, the worst-case function, and on-the-fly indexing.

This example mirrors Section III of the ICDE'18 demo paper on the simulated
diamond database:

1. compare 1D-BASELINE / 1D-BINARY / 1D-RERANK on rankings that agree with,
   oppose, and ignore the hidden system ranking;
2. run the paper's 3D function ``price - 0.1 carat - 0.5 depth`` through
   MD-RERANK and MD-TA;
3. demonstrate the worst case ``price + length_width_ratio`` (about 20 % of
   the stones share ``length_width_ratio = 1.0``) and how the on-the-fly
   dense-region index amortizes it.

Run with::

    python examples/bluenile_diamonds.py
"""

from __future__ import annotations

from repro.config import RerankConfig
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.latency import LatencyModel
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking


def build_bluenile(size: int = 2000) -> HiddenWebDatabase:
    """The simulated Blue Nile source used throughout the example."""
    config = DiamondCatalogConfig(size=size, seed=2018)
    return HiddenWebDatabase(
        catalog=generate_diamond_catalog(config),
        schema=diamond_schema(),
        system_ranking=FeaturedScoreRanking("price", boost_weight=2500.0),
        system_k=20,
        latency=LatencyModel.accounted(1.0, seed=7),
        name="bluenile-sim",
    )


def compare_1d_algorithms(database: HiddenWebDatabase) -> None:
    """Query cost of the three 1D algorithms under different correlations."""
    print("=" * 72)
    print("1D algorithms: query cost for 10 results")
    print("=" * 72)
    query = SearchQuery.build(ranges={"carat": (0.5, 3.0)})
    cases = [
        ("price asc  (agrees with hidden ranking)", SingleAttributeRanking("price", True)),
        ("price desc (opposes hidden ranking)", SingleAttributeRanking("price", False)),
        ("depth asc  (independent of hidden ranking)", SingleAttributeRanking("depth", True)),
    ]
    header = f"{'ranking':45s} {'baseline':>9s} {'binary':>9s} {'rerank':>9s}"
    print(header)
    for label, ranking in cases:
        costs = []
        for algorithm in (Algorithm.BASELINE, Algorithm.BINARY, Algorithm.RERANK):
            reranker = QueryReranker(database, config=RerankConfig())
            stream = reranker.rerank(query, ranking, algorithm=algorithm)
            stream.top(10)
            costs.append(stream.statistics.external_queries)
        print(f"{label:45s} {costs[0]:9d} {costs[1]:9d} {costs[2]:9d}")
    print()


def run_paper_3d_function(database: HiddenWebDatabase) -> None:
    """The 3D slider function of the paper's Fig. 3(b)."""
    print("=" * 72)
    print("MD reranking: price - 0.1 carat - 0.5 depth (the paper's 3D demo)")
    print("=" * 72)
    normalizer = MinMaxNormalizer.from_schema(database.schema, ["price", "carat", "depth"])
    ranking = LinearRankingFunction(
        {"price": 1.0, "carat": -0.1, "depth": -0.5}, normalizer=normalizer
    )
    for algorithm in (Algorithm.RERANK, Algorithm.TA):
        reranker = QueryReranker(database, config=RerankConfig())
        stream = reranker.rerank(SearchQuery.everything(), ranking, algorithm=algorithm)
        rows = stream.top(5)
        stats = stream.statistics.snapshot()
        print(f"\n  MD-{algorithm.value.upper()}:")
        for row in rows:
            print(
                f"    {row['id']}  price=${row['price']:>8.0f}  carat={row['carat']:.2f}  "
                f"depth={row['depth']:.1f}  cut={row['cut']}"
            )
        print(
            f"    -> {stats['external_queries']} queries, "
            f"{stats['processing_seconds']:.1f} s, "
            f"{stats['parallel_fraction']:.0%} of iterations parallel"
        )
    print()


def demonstrate_worst_case(database: HiddenWebDatabase) -> None:
    """The paper's worst case plus the on-the-fly indexing pay-off."""
    print("=" * 72)
    print("Worst case: price + length_width_ratio (the LWR=1.0 value cluster)")
    print("=" * 72)
    cluster = database.value_multiplicity("length_width_ratio").get(1.0, 0)
    print(
        f"  {cluster} of {database.size} stones "
        f"({cluster / database.size:.0%}) share length_width_ratio = 1.0; "
        f"system-k is only {database.system_k}.\n"
    )
    ranking = SingleAttributeRanking("length_width_ratio", ascending=True)
    # Starting the range at 0.995 puts the LWR = 1.0 cluster first in the
    # answer, so serving even one page requires crawling the whole group.
    query = SearchQuery.build(ranges={"length_width_ratio": (0.995, 1.6)})
    reranker = QueryReranker(database, config=RerankConfig())
    for attempt in ("cold (index empty)", "warm (dense region indexed)"):
        stream = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
        stream.top(10)
        stats = stream.statistics.snapshot()
        print(
            f"  {attempt:30s}: {stats['external_queries']:4d} queries, "
            f"{stats['processing_seconds']:7.1f} s, "
            f"{stats['dense_regions_built']} regions crawled, "
            f"{stats['dense_index_hits']} index hits"
        )
    print(f"\n  dense-region index now holds: {reranker.dense_index.describe()}\n")


def main() -> None:
    database = build_bluenile()
    print(f"{database.describe()}\n")
    compare_1d_algorithms(database)
    run_paper_3d_function(database)
    demonstrate_worst_case(database)


if __name__ == "__main__":
    main()
