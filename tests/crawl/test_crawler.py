"""Tests for the hidden-database crawler."""

import pytest

from repro.core.parallel import QueryEngine
from repro.crawl.crawler import HiddenDatabaseCrawler
from repro.dataset.diamonds import DiamondCatalogConfig, diamond_schema, generate_diamond_catalog
from repro.dataset.housing import HousingCatalogConfig, generate_housing_catalog, housing_schema
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import ColumnTable
from repro.exceptions import CrawlError, QueryBudgetExceeded
from repro.webdb.counters import QueryBudget
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.query import RangePredicate, SearchQuery
from repro.webdb.ranking import (
    AttributeOrderRanking,
    FeaturedScoreRanking,
    RandomTieBreakRanking,
)
from tests.reference import WidestMidpointCrawler


def crawl_value_group(interface, base_query, attribute, value):
    """Crawl every tuple matching ``base_query`` with ``attribute == value``:
    the fallback for more than ``system-k`` tuples sharing one value."""
    point = RangePredicate(attribute, value, value)
    return HiddenDatabaseCrawler(QueryEngine(interface)).crawl(base_query.with_range(point))


def _clustered_db(cluster_size=60, other=40, system_k=10) -> HiddenWebDatabase:
    """A database where ``cluster_size`` tuples share ratio == 1.0 (a
    general-positioning violation for any k < cluster_size)."""
    schema = Schema(
        key="id",
        attributes=(
            Attribute.numeric("price", 0, 1000),
            Attribute.numeric("ratio", 0.5, 3.0),
            Attribute.categorical("kind", ["a", "b", "c"]),
        ),
    )
    rows = []
    for i in range(cluster_size):
        rows.append(
            {"id": f"c{i}", "price": float(i * 3 % 997), "ratio": 1.0, "kind": "abc"[i % 3]}
        )
    for i in range(other):
        rows.append(
            {"id": f"o{i}", "price": float(i * 7 % 997), "ratio": 1.5 + (i % 20) * 0.05, "kind": "abc"[i % 3]}
        )
    return HiddenWebDatabase(
        ColumnTable.from_rows(rows),
        schema,
        RandomTieBreakRanking(),
        system_k=system_k,
    )


class TestCrawlCompleteness:
    def test_crawl_retrieves_every_matching_tuple(self, bluenile_db):
        query = SearchQuery.build(ranges={"price": (500, 5000)})
        crawler = HiddenDatabaseCrawler(QueryEngine(bluenile_db))
        rows, stats = crawler.crawl(query)
        truth = bluenile_db.all_matches(query)
        assert {row["id"] for row in rows} == {row["id"] for row in truth}
        assert stats.tuples_retrieved == len(truth)
        assert stats.queries_issued >= 1

    def test_crawl_of_valid_region_costs_one_query(self, bluenile_db):
        # A narrow region that does not overflow should cost exactly one query.
        query = SearchQuery.build(ranges={"carat": (4.5, 5.0)})
        assert not bluenile_db.search(query).is_overflow
        crawler = HiddenDatabaseCrawler(QueryEngine(bluenile_db))
        rows, stats = crawler.crawl(query)
        assert stats.queries_issued == 1
        assert {row["id"] for row in rows} == {
            row["id"] for row in bluenile_db.all_matches(query)
        }

    def test_crawl_value_group_with_general_positioning_violation(self):
        database = _clustered_db()
        rows, stats = crawl_value_group(
            database, SearchQuery.everything(), "ratio", 1.0
        )
        assert len(rows) == 60
        assert all(row["ratio"] == 1.0 for row in rows)
        assert stats.overflow_queries >= 1
        # Splitting happened on *other* attributes (ratio is pinned).
        assert "ratio" not in stats.splits_per_attribute

    def test_crawl_whole_clustered_database(self):
        database = _clustered_db()
        crawler = HiddenDatabaseCrawler(QueryEngine(database))
        rows, _ = crawler.crawl(SearchQuery.everything())
        assert len(rows) == database.size

    def test_crawl_respects_base_filter(self):
        database = _clustered_db()
        query = SearchQuery.build(memberships={"kind": ["a"]})
        crawler = HiddenDatabaseCrawler(QueryEngine(database))
        rows, _ = crawler.crawl(query)
        assert all(row["kind"] == "a" for row in rows)
        assert {row["id"] for row in rows} == {
            row["id"] for row in database.all_matches(query)
        }

    def test_lwr_cluster_on_diamond_catalog(self, bluenile_db):
        rows, _ = crawl_value_group(
            bluenile_db, SearchQuery.everything(), "length_width_ratio", 1.0
        )
        truth = [
            row
            for row in bluenile_db.all_matches(SearchQuery.everything())
            if row["length_width_ratio"] == 1.0
        ]
        assert len(rows) == len(truth)
        assert len(rows) > bluenile_db.system_k  # it really is a violation


class TestCrawlAccounting:
    def test_crawl_lands_in_the_engines_statistics(self):
        # Each breadth-first level is one engine group, and every level's
        # round trips are external queries of the request that crawled.
        engine = QueryEngine(_clustered_db())
        assert engine.search(SearchQuery.everything()).is_overflow
        rows, stats = HiddenDatabaseCrawler(engine).crawl(SearchQuery.everything())
        assert len(rows) == 100
        assert stats.max_depth >= 1
        levels = engine.statistics.iteration_group_sizes[1:]
        assert len(levels) == stats.max_depth + 1
        assert levels[0] == 1 and all(size >= 2 for size in levels[1:])
        assert sum(levels) == stats.queries_issued
        assert engine.statistics.external_queries == 1 + stats.queries_issued
        assert engine.statistics.result_cache_hits == 0


class TestCrawlLimits:
    def test_budget_enforced(self, bluenile_db):
        engine = QueryEngine(bluenile_db, budget=QueryBudget(3))
        crawler = HiddenDatabaseCrawler(engine)
        with pytest.raises(QueryBudgetExceeded):
            crawler.crawl(SearchQuery.everything())
        assert engine.budget.used <= 3

    def test_unsplittable_identical_tuples_raise(self):
        # More than k tuples identical on every searchable attribute cannot be
        # separated by any query; the crawler must refuse rather than loop.
        schema = Schema(
            key="id",
            attributes=(Attribute.numeric("price", 0, 10),),
        )
        rows = [{"id": f"t{i}", "price": 5.0} for i in range(20)]
        database = HiddenWebDatabase(
            ColumnTable.from_rows(rows),
            schema,
            AttributeOrderRanking("price"),
            system_k=5,
        )
        crawler = HiddenDatabaseCrawler(QueryEngine(database))
        with pytest.raises(CrawlError):
            crawler.crawl(SearchQuery.everything())

    def test_max_depth_enforced(self):
        database = _clustered_db()
        crawler = HiddenDatabaseCrawler(QueryEngine(database), max_depth=1)
        with pytest.raises(CrawlError):
            crawler.crawl(SearchQuery.everything())

    def test_statistics_snapshot_keys(self, bluenile_db):
        crawler = HiddenDatabaseCrawler(QueryEngine(bluenile_db))
        _, stats = crawler.crawl(SearchQuery.build(ranges={"carat": (0.2, 0.6)}))
        snapshot = stats.snapshot()
        assert {"queries_issued", "overflow_queries", "leaves", "tuples_retrieved"} <= set(snapshot)


def _split_oracle_databases():
    """4 000-tuple Blue Nile (seed 7) and Zillow (seed 8) catalogs at k = 10,
    each under three hidden rankings, with the regions crawled on each."""
    diamonds = DiamondCatalogConfig(size=4000, seed=7)
    housing = HousingCatalogConfig(size=4000, seed=8)
    catalogs = (
        (
            "bluenile", generate_diamond_catalog(diamonds), diamond_schema(),
            [SearchQuery.build(ranges={"table": (value, value)})
             for value in (52, 54, 56, 57, 58, 60, 63)]
            + [
                SearchQuery.build(ranges={"length_width_ratio": (0.995, 1.01)}),
                SearchQuery.build(ranges={"price": (500, 900)}),
                SearchQuery.build(ranges={"carat": (0.3, 0.32)}),
                SearchQuery.build(ranges={"depth": (61, 61)}),
            ],
        ),
        (
            "zillow", generate_housing_catalog(housing), housing_schema(),
            [SearchQuery.build(ranges={"year_built": (value, value)})
             for value in (1950, 1975, 2000)]
            + [
                SearchQuery.build(ranges={"squarefeet": (1500, 1520)}),
                SearchQuery.build(ranges={"price": (200_000, 205_000)}),
            ],
        ),
    )
    for name, catalog, schema, regions in catalogs:
        for ranking in (
            FeaturedScoreRanking("price"),
            AttributeOrderRanking("price"),
            RandomTieBreakRanking(),
        ):
            database = HiddenWebDatabase(catalog, schema, ranking, system_k=10, name=name)
            yield f"{name}/{type(ranking).__name__}", database, regions


class TestSplitFromTheAnswer:
    def test_no_region_costs_more_or_goes_deeper_than_the_widest_midpoint_rule(self):
        for label, database, regions in _split_oracle_databases():
            for query in regions:
                rows, stats = HiddenDatabaseCrawler(QueryEngine(database)).crawl(query)
                _, oracle = WidestMidpointCrawler(QueryEngine(database)).crawl(query)
                where = (label, query.describe())
                assert {row["id"] for row in rows} == {
                    row["id"] for row in database.all_matches(query)
                }, where
                assert stats.queries_issued <= oracle.queries_issued, where
                assert stats.max_depth <= oracle.max_depth, where

    def test_split_skips_the_widest_attribute_when_every_row_is_on_one_side(self):
        # "price" is the widest range relative to its domain, but every
        # answered row lies below its midpoint; "ratio" divides them evenly,
        # so it is halved instead.
        crawler = HiddenDatabaseCrawler(QueryEngine(_clustered_db()))
        query = SearchQuery.build(ranges={"ratio": (0.5, 2.5)})
        rows = [
            {"id": f"r{i}", "price": 10.0 * i, "ratio": 0.6 + 0.2 * i, "kind": "a"}
            for i in range(10)
        ]
        low, high = crawler._choose_split(query, rows)
        assert low.range_on("ratio").upper == high.range_on("ratio").lower == 1.5
        assert low.range_on("price") is None and high.range_on("price") is None
        # With nothing answered the widest attribute is halved, as before.
        low, high = crawler._choose_split(query, [])
        assert low.range_on("price").upper == high.range_on("price").lower == 500.0
