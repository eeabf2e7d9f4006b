"""The paper's primary contribution: query reranking over a top-k web
database, exposed through Get-Next primitives and a high-level facade."""

from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    UserRankingFunction,
)
from repro.core.normalization import MinMaxNormalizer
from repro.core.session import Session
from repro.core.reranker import Algorithm, QueryReranker, RerankRequest
from repro.core.getnext import GetNextStream
from repro.core.dense_index import DenseRegionIndex

__all__ = [
    "UserRankingFunction",
    "LinearRankingFunction",
    "SingleAttributeRanking",
    "MinMaxNormalizer",
    "Session",
    "Algorithm",
    "QueryReranker",
    "RerankRequest",
    "GetNextStream",
    "DenseRegionIndex",
]
