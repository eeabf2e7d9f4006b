#!/usr/bin/env python3
"""Quickstart: rerank a simulated web database with your own ranking function.

The script builds a small Blue Nile-like web database that only exposes a
top-k search interface with a hidden ranking, then uses the QR2 reranker to
answer a filtered query under a *user-chosen* ranking function — price minus
half a (normalized) carat — and prints the result pages together with the
statistics panel the QR2 UI shows (number of external queries, processing
time, parallelism).

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.config import RerankConfig
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.reranker import Algorithm, QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.dataset.table import ColumnTable
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.latency import LatencyModel
from repro.webdb.query import SearchQuery
from repro.webdb.ranking import FeaturedScoreRanking


def build_web_database() -> HiddenWebDatabase:
    """A simulated diamond retailer: 2 000 stones, top-20 interface, hidden
    'featured' ranking, and ~1 s of (accounted, not slept) latency per query."""
    config = DiamondCatalogConfig(size=2000, seed=42)
    return HiddenWebDatabase(
        catalog=generate_diamond_catalog(config),
        schema=diamond_schema(),
        system_ranking=FeaturedScoreRanking("price", boost_weight=2500.0),
        system_k=20,
        latency=LatencyModel.accounted(1.0, seed=42),
        name="bluenile-sim",
    )


def show(rows, columns) -> None:
    """Pretty-print result rows."""
    if not rows:
        print("  (no results)")
        return
    table = ColumnTable.from_rows(rows, columns=columns)
    print(table.to_text(max_rows=len(rows)))


def main() -> None:
    database = build_web_database()
    print(f"Simulated web database: {database.describe()}\n")

    reranker = QueryReranker(database, config=RerankConfig())

    # --- the filtering section -------------------------------------------- #
    query = SearchQuery.build(
        ranges={"carat": (0.7, 2.5), "price": (500.0, 15000.0)},
        memberships={"shape": ["round", "princess", "cushion"]},
    )
    print(f"Filter: {query.describe()}\n")

    # --- a 1D reranking: biggest stones first ------------------------------ #
    one_dim = SingleAttributeRanking("carat", ascending=False)
    stream = reranker.rerank(query, one_dim, algorithm=Algorithm.RERANK)
    print("Top 5 by carat (descending), via 1D-RERANK:")
    show(stream.next_page(5), ["id", "price", "carat", "cut", "shape"])
    stats = stream.statistics.snapshot()
    print(
        f"  -> {stats['external_queries']} queries to the web database, "
        f"{stats['processing_seconds']:.1f} s simulated processing time\n"
    )

    # --- an MD reranking: the paper's slider function ----------------------- #
    normalizer = MinMaxNormalizer.from_schema(database.schema, ["price", "carat"])
    ranking = LinearRankingFunction({"price": 1.0, "carat": -0.5}, normalizer=normalizer)
    stream = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
    print(f"Top 5 by '{ranking.describe()}', via MD-RERANK:")
    show(stream.next_page(5), ["id", "price", "carat", "cut", "shape"])

    print("\nGet-Next: the next page continues the same ranking...")
    show(stream.next_page(5), ["id", "price", "carat", "cut", "shape"])

    stats = stream.statistics.snapshot()
    print("\nStatistics panel:")
    print(f"  external queries   : {stats['external_queries']}")
    print(f"  processing seconds : {stats['processing_seconds']:.1f}")
    print(f"  parallel fraction  : {stats['parallel_fraction']:.0%} of iterations")
    print(f"  session cache hits : {stats['cache_hits']}")
    print(f"  dense-region index : {reranker.dense_index.describe()}")


if __name__ == "__main__":
    main()
