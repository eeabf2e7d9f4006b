"""Regression tests for concurrent statistics recording.

``InterfaceStatistics.record`` is called by every request over a source;
before it took a lock, parallel groups could lose counter increments.  These
tests hammer a
:class:`SourceStack` (which owns the statistics) from many threads and assert
nothing is lost.
"""

import threading

from repro.webdb.query import SearchQuery
from repro.webdb.stack import SourceStack

THREADS = 16
SEARCHES_PER_THREAD = 50


class TestInstrumentedInterfaceThreadSafety:
    def test_concurrent_record_loses_nothing(self, bluenile_db):
        instrumented = SourceStack(bluenile_db)
        queries = [
            SearchQuery.build(ranges={"price": (0.0, 500.0)}),  # valid/underflow
            SearchQuery.build(ranges={"carat": (0.2, 5.0)}),  # overflow
            SearchQuery.build(ranges={"price": (0.0, 500.0), "carat": (0.2, 5.0)}),
        ]
        barrier = threading.Barrier(THREADS)

        def hammer(worker_index: int) -> None:
            barrier.wait()
            for i in range(SEARCHES_PER_THREAD):
                instrumented.search(queries[(worker_index + i) % len(queries)])

        threads = [
            threading.Thread(target=hammer, args=(index,)) for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        total = THREADS * SEARCHES_PER_THREAD
        statistics = instrumented.statistics
        assert statistics.queries == total
        # Replay the same schedule single-threaded to get the exact expected
        # row total; the concurrent run must not lose any of it.
        page_sizes = [len(bluenile_db.search(query).rows) for query in queries]
        expected = sum(
            page_sizes[(worker_index + i) % len(queries)]
            for worker_index in range(THREADS)
            for i in range(SEARCHES_PER_THREAD)
        )
        assert statistics.rows_returned == expected

    def test_snapshot_consistent_under_load(self, bluenile_db):
        instrumented = SourceStack(bluenile_db)
        query = SearchQuery.everything()
        page_size = len(bluenile_db.search(query).rows)
        stop = threading.Event()

        def hammer() -> None:
            while not stop.is_set():
                instrumented.search(query)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(20):
                snapshot = instrumented.statistics.snapshot()
                assert snapshot["rows_returned"] == page_size * snapshot["queries"]
        finally:
            stop.set()
            thread.join(timeout=10.0)
