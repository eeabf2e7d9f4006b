"""Simulated hidden web databases exposing only a top-k search interface."""

from repro.webdb.query import InPredicate, RangePredicate, SearchQuery
from repro.webdb.delta import CatalogDelta, merge_shard_deltas
from repro.webdb.interface import Outcome, SearchResult, TopKInterface
from repro.webdb.database import HiddenWebDatabase, stream_sorted_columns
from repro.webdb.ranking import (
    AttributeOrderRanking,
    FeaturedScoreRanking,
    LinearSystemRanking,
    RandomTieBreakRanking,
    SystemRankingFunction,
)
from repro.webdb.cache import FetchStatus, QueryResultCache
from repro.webdb.counters import QueryBudget, QueryCounter
from repro.webdb.federation import FederatedInterface, partition_positions
from repro.webdb.engine import ExecutionEngine, IndexedColumnarEngine, QueryPlan
from repro.webdb.indexes import ColumnarCatalog
from repro.webdb.latency import LatencyModel
from repro.webdb.stack import SourceStack

__all__ = [
    "CatalogDelta",
    "merge_shard_deltas",
    "ColumnarCatalog",
    "ExecutionEngine",
    "FetchStatus",
    "IndexedColumnarEngine",
    "QueryPlan",
    "QueryResultCache",
    "InPredicate",
    "RangePredicate",
    "SearchQuery",
    "Outcome",
    "SearchResult",
    "TopKInterface",
    "HiddenWebDatabase",
    "SystemRankingFunction",
    "AttributeOrderRanking",
    "LinearSystemRanking",
    "FeaturedScoreRanking",
    "RandomTieBreakRanking",
    "QueryCounter",
    "QueryBudget",
    "LatencyModel",
    "FederatedInterface",
    "SourceStack",
    "partition_positions",
    "stream_sorted_columns",
]
