"""Data-source registry.

The QR2 UI lets the user pick a data source (Blue Nile or Zillow) before
filtering and ranking.  :class:`DataSourceRegistry` is the service-side
counterpart: it maps a source name to the site behind it, the reranker
that queries that site through its source stack and owns its dense-region
index, and presentation metadata (which attributes appear in the filtering
section, which ones are offered for ranking, which columns the result table
shows).

:func:`build_default_registry` wires up the two simulated sources the
reproduction ships with, mirroring the demo configuration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import DatabaseConfig, RerankConfig
from repro.core.reranker import QueryReranker
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.dataset.housing import HousingCatalogConfig, generate_housing_catalog, housing_schema
from repro.dataset.schema import Schema
from repro.exceptions import DataSourceError
from repro.sqlstore.dense_cache import DenseRegionCache
from repro.webdb.build import build_source
from repro.webdb.cache import QueryResultCache
from repro.webdb.interface import TopKInterface
from repro.webdb.ranking import FeaturedScoreRanking, SystemRankingFunction
from repro.webdb.stack import SourceStack


@dataclass
class DataSource:
    """One web database the service can rerank.

    ``interface`` is the site itself — a database, or a federation that
    routes a change to its shards — where catalog changes are made; the
    reranker reaches it only through its source stack's top-k interface.
    """

    name: str
    title: str
    interface: TopKInterface
    reranker: QueryReranker
    result_columns: List[str] = field(default_factory=list)

    @property
    def schema(self) -> Schema:
        """Schema of the source's public search form."""
        return self.interface.schema

    def filtering_attributes(self) -> List[str]:
        """Attributes shown in the UI's filtering section (everything)."""
        return self.schema.names

    def ranking_attributes(self) -> List[str]:
        """Attributes offered in the ranking section (rankable numerics)."""
        return self.schema.rankable_names

    def describe(self) -> Dict[str, object]:
        """JSON-friendly source description for the service's source list."""
        return {
            "name": self.name,
            "title": self.title,
            "system_k": self.interface.system_k,
            "shards": getattr(self.interface, "shard_count", 1),
            "filtering_attributes": self.filtering_attributes(),
            "ranking_attributes": self.ranking_attributes(),
            "result_columns": list(self.result_columns) or self.schema.columns(),
        }


class DataSourceRegistry:
    """Thread-safe registry of the sources the service exposes."""

    def __init__(self) -> None:
        self._sources: Dict[str, DataSource] = {}
        self._lock = threading.Lock()

    def register(self, source: DataSource) -> None:
        """Add a source (replacing any existing source of the same name)."""
        with self._lock:
            self._sources[source.name] = source

    def get(self, name: str) -> DataSource:
        """Look up a source, raising :class:`DataSourceError` when unknown."""
        with self._lock:
            if name not in self._sources:
                known = ", ".join(sorted(self._sources)) or "(none)"
                raise DataSourceError(f"unknown data source {name!r}; known: {known}")
            return self._sources[name]

    def names(self) -> List[str]:
        """Registered source names, sorted."""
        with self._lock:
            return sorted(self._sources)

    def describe_all(self) -> List[Dict[str, object]]:
        """Descriptions of every registered source."""
        with self._lock:
            sources = list(self._sources.values())
        return [source.describe() for source in sources]


def build_default_registry(
    diamond_config: Optional[DiamondCatalogConfig] = None,
    housing_config: Optional[HousingCatalogConfig] = None,
    database_config: Optional[DatabaseConfig] = None,
    rerank_config: Optional[RerankConfig] = None,
    dense_cache_path: Optional[str] = None,
) -> DataSourceRegistry:
    """Build the registry with the two simulated sources of the demonstration.

    ``dense_cache_path`` enables the persistent (SQLite) dense-region cache —
    one file per source, suffixing the given path — matching the shared MySQL
    cache of the deployed system; each is verified against its live catalog
    before the registry is returned.

    All sources share a single :class:`QueryResultCache` (namespaced per
    source) so that every session of the service reuses every other
    session's query answers.
    """
    diamond_config = diamond_config or DiamondCatalogConfig()
    housing_config = housing_config or HousingCatalogConfig()
    database_config = database_config or DatabaseConfig()
    rerank_config = rerank_config or RerankConfig()
    result_cache = QueryResultCache()

    registry = DataSourceRegistry()
    registry.register(
        _make_source(
            name="bluenile",
            title="Blue Nile (simulated diamond catalog)",
            catalog=generate_diamond_catalog(diamond_config),
            schema=diamond_schema(),
            system_ranking=FeaturedScoreRanking("price", boost_weight=2500.0),
            database_config=database_config,
            rerank_config=rerank_config,
            dense_cache_path=_suffix(dense_cache_path, "bluenile"),
            result_cache=result_cache,
            result_columns=[
                "id", "price", "carat", "cut", "color", "clarity", "shape",
                "depth", "table", "length_width_ratio",
            ],
        )
    )
    registry.register(
        _make_source(
            name="zillow",
            title="Zillow (simulated housing catalog)",
            catalog=generate_housing_catalog(housing_config),
            schema=housing_schema(),
            system_ranking=FeaturedScoreRanking("price", boost_weight=150000.0),
            database_config=database_config,
            rerank_config=rerank_config,
            dense_cache_path=_suffix(dense_cache_path, "zillow"),
            result_cache=result_cache,
            result_columns=[
                "id", "price", "squarefeet", "bedrooms", "bathrooms",
                "year_built", "city", "zipcode", "home_type",
            ],
        )
    )
    return registry


def _suffix(path: Optional[str], name: str) -> Optional[str]:
    if path is None:
        return None
    return f"{path}.{name}.sqlite"


def _make_source(
    name: str,
    title: str,
    catalog,
    schema: Schema,
    system_ranking: SystemRankingFunction,
    database_config: DatabaseConfig,
    rerank_config: RerankConfig,
    dense_cache_path: Optional[str],
    result_columns: List[str],
    result_cache: QueryResultCache,
) -> DataSource:
    # The reranker keys its cache and feed state under the source's name;
    # a sharded source's entries keep its shards' pages.
    stack = build_source(catalog, schema, system_ranking, database_config, name=name)
    dense_cache = (
        DenseRegionCache(schema, path=dense_cache_path) if dense_cache_path else None
    )
    reranker = QueryReranker(
        stack,
        config=rerank_config,
        dense_cache=dense_cache,
        result_cache=result_cache,
    )
    # The stored regions may predate a catalog change: re-crawl them before
    # the first request (the paper refreshes its cache at start-up).
    reranker.verify_dense_cache()
    return DataSource(
        name=name,
        title=title,
        interface=stack.database if isinstance(stack, SourceStack) else stack,
        reranker=reranker,
        result_columns=result_columns,
    )
