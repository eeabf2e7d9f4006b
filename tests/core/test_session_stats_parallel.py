"""Tests for sessions, request statistics, and the parallel query engine."""

import math
import threading

import pytest

from repro.core.functions import SingleAttributeRanking
from repro.core.parallel import QueryEngine
from repro.core.session import Session
from repro.core.stats import RerankStatistics
from repro.exceptions import QueryBudgetExceeded
from repro.webdb.counters import QueryBudget
from repro.webdb.query import SearchQuery


class TestSession:
    def test_remember_and_seen_count(self):
        session = Session("s1")
        added = session.remember([{"id": "a", "price": 1.0}, {"id": "b", "price": 2.0}], "id")
        assert added == 2
        assert session.remember([{"id": "a", "price": 1.0}], "id") == 0
        assert session.seen_count() == 2

    def test_cached_candidates_filters_and_sorts(self):
        session = Session("s1")
        rows = [
            {"id": "a", "price": 5.0},
            {"id": "b", "price": 1.0},
            {"id": "c", "price": 3.0},
        ]
        session.remember(rows, "id")
        session.mark_emitted(rows[1], "id")  # b already shown
        heap = session.cached_candidates(SearchQuery.everything(), SingleAttributeRanking("price"), "id")
        drained = []
        while (best := heap.best(-math.inf)) is not None:
            drained.append(best[2]["id"])
            session.mark_emitted(best[2], "id")
        assert drained == ["c", "a"]

    def test_cached_candidates_respects_query_and_frontier(self):
        session = Session("s1")
        session.remember(
            [{"id": "a", "price": 5.0}, {"id": "b", "price": 50.0}], "id"
        )
        query = SearchQuery.build(ranges={"price": (0.0, 10.0)})
        heap = session.cached_candidates(query, SingleAttributeRanking("price"), "id")
        assert heap.best(-math.inf) == (5.0, "a", {"id": "a", "price": 5.0})
        assert heap.best(5.0, inclusive=False) is None
        assert session.cached_candidates(query, SingleAttributeRanking("price"), "id").best(10.0) is None

    def test_emission_history(self):
        session = Session("s1")
        session.mark_emitted({"id": "a", "price": 1.0}, "id")
        session.mark_emitted({"id": "b", "price": 2.0}, "id")
        assert session.has_emitted("a") and session.has_emitted("b")
        assert not session.has_emitted("c")
        assert session.describe()["emitted"] == 2

    def test_pending_queue_fifo(self):
        session = Session("s1")
        session.push_pending([{"id": "a"}, {"id": "b"}])
        assert session.describe()["pending"] == 2
        assert session.pop_pending()["id"] == "a"
        assert session.pop_pending()["id"] == "b"
        assert session.pop_pending() is None

    def test_reset_for_new_request_keeps_cache(self):
        session = Session("s1")
        session.remember([{"id": "a", "price": 1.0}], "id")
        session.mark_emitted({"id": "a", "price": 1.0}, "id")
        session.push_pending([{"id": "b"}])
        session.statistics.add(get_next_calls=1, tuples_returned=1)
        session.reset_for_new_request()
        assert session.seen_count() == 1
        assert session.describe()["emitted"] == 0
        assert session.pop_pending() is None
        assert session.statistics.get_next_calls == 0

    def test_describe_and_idle(self):
        session = Session("s1")
        info = session.describe()
        assert info["session_id"] == "s1"
        assert session.idle_seconds() >= 0.0
        session.touch()


class TestRerankStatistics:
    def test_record_iteration_accumulates(self):
        stats = RerankStatistics()
        stats.record_iteration(1, 1.0)
        stats.record_iteration(4, 1.5)
        assert stats.external_queries == 5
        assert stats.iterations == 2
        assert stats.parallel_iterations == 1
        assert stats.parallel_queries == 4
        assert stats.sequential_queries == 1
        assert stats.parallel_fraction == 0.5
        assert stats.parallel_query_fraction == 0.8
        assert stats.simulated_seconds == pytest.approx(2.5)

    def test_zero_group_ignored(self):
        stats = RerankStatistics()
        stats.record_iteration(0, 1.0)
        assert stats.iterations == 0

    def test_counters(self):
        stats = RerankStatistics()
        stats.record("cache_hits")
        stats.record("dense_index_hits", 2)
        stats.add(dense_regions_built=1, crawled_tuples=30)
        stats.add(get_next_calls=1, tuples_returned=1)
        stats.record("get_next_calls")
        snapshot = stats.snapshot()
        assert snapshot["cache_hits"] == 1
        assert snapshot["dense_index_hits"] == 2
        assert snapshot["dense_regions_built"] == 1
        assert snapshot["crawled_tuples"] == 30
        assert snapshot["get_next_calls"] == 2
        assert snapshot["tuples_returned"] == 1

    def test_timer(self):
        stats = RerankStatistics()
        stats.start_timer()
        stats.stop_timer()
        assert stats.wall_seconds >= 0.0
        assert stats.processing_seconds >= stats.simulated_seconds

    def test_parallel_fraction_empty(self):
        assert RerankStatistics().parallel_fraction == 0.0
        assert RerankStatistics().parallel_query_fraction == 0.0


class TestQueryEngine:
    def test_single_search_counts_sequential_iteration(self, bluenile_db):
        engine = QueryEngine(bluenile_db)
        engine.search(SearchQuery.everything())
        assert engine.statistics.iterations == 1
        assert engine.statistics.sequential_queries == 1
        assert engine.queries_issued() == 1
        assert engine.statistics.result_cache_hits == 0

    def test_group_search_is_one_parallel_iteration(self, bluenile_db):
        engine = QueryEngine(bluenile_db)
        queries = [
            SearchQuery.build(ranges={"price": (300.0 + i, 4000.0 + i)}) for i in range(4)
        ]
        results = engine.search_group(queries)
        assert len(results) == 4
        assert engine.statistics.iterations == 1
        assert engine.statistics.parallel_iterations == 1
        assert engine.statistics.parallel_queries == 4

    def test_group_latency_is_max_when_parallel(self, diamond_catalog, diamond_schema_fixture):
        from repro.webdb.database import HiddenWebDatabase
        from repro.webdb.latency import LatencyModel
        from repro.webdb.ranking import AttributeOrderRanking

        timed = HiddenWebDatabase(
            diamond_catalog,
            diamond_schema_fixture,
            AttributeOrderRanking("price"),
            system_k=10,
            latency=LatencyModel.accounted(2.0, jitter=0.0),
        )
        engine = QueryEngine(timed)
        queries = [SearchQuery.build(ranges={"carat": (0.5, 1.0 + i)}) for i in range(3)]
        engine.search_group(queries)
        assert engine.statistics.simulated_seconds == pytest.approx(2.0)
        assert engine.statistics.parallel_iterations == 1

    def test_empty_group_is_noop(self, bluenile_db):
        engine = QueryEngine(bluenile_db)
        assert engine.search_group([]) == []
        assert engine.statistics.iterations == 0

    def test_budget_enforced_across_groups(self, bluenile_db):
        engine = QueryEngine(bluenile_db, budget=QueryBudget(2))
        engine.search(SearchQuery.everything())
        with pytest.raises(QueryBudgetExceeded):
            engine.search_group(
                [SearchQuery.everything(), SearchQuery.build(ranges={"carat": (1, 2)})]
            )

    def test_properties_delegate(self, bluenile_db):
        engine = QueryEngine(bluenile_db)
        assert engine.schema is bluenile_db.schema
        assert engine.system_k == bluenile_db.system_k
        assert engine.key_column == "id"
        assert engine.interface is bluenile_db
