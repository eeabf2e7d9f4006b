"""Tests for :class:`GetNextStream` mechanics: thread safety, close, and
the shared-immutable-row storage of the emitted prefix."""

import threading
from dataclasses import replace

import pytest

from repro.config import RerankConfig
from repro.core.reranker import Algorithm, QueryReranker
from repro.webdb.query import SearchQuery


RANKING_SPEC = ("carat", False)
QUERY = SearchQuery.build(ranges={"price": (500.0, 9000.0)})


def _make_stream(reranker):
    from repro.core.functions import SingleAttributeRanking

    return reranker.rerank(
        QUERY,
        SingleAttributeRanking(*RANKING_SPEC),
        algorithm=Algorithm.RERANK,
    )


@pytest.fixture(params=["private", "feed"])
def stream_reranker(request, bluenile_db):
    """Both stream flavours must satisfy the same contract."""
    config = RerankConfig()
    if request.param == "private":
        config = replace(config, enable_rerank_feed=False)
    return QueryReranker(bluenile_db, config=config)


class TestThreadSafety:
    def test_two_racing_threads_never_duplicate_or_drop_tuples(
        self, stream_reranker, bluenile_db
    ):
        """Regression: ``get_next``'s check-emit-append is atomic, so two
        concurrent ``next_page`` calls on one stream partition the answer
        instead of interleaving ``_returned``/``_exhausted`` updates."""
        stream = _make_stream(stream_reranker)
        barrier = threading.Barrier(2)
        pages = {}
        errors = []

        def worker(name):
            try:
                barrier.wait()
                pages[name] = stream.next_page(12)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        combined = [row["id"] for page in pages.values() for row in page]
        # No tuple emitted twice, none lost: the union equals the prefix.
        assert len(combined) == len(set(combined)) == 24
        assert combined and set(combined) == {
            row["id"] for row in stream.returned_so_far
        }
        # The emission history matches the single-threaded ground truth.
        control = _make_stream(
            QueryReranker(
                bluenile_db, config=RerankConfig(enable_rerank_feed=False)
            )
        )
        truth = [row["id"] for row in control.next_page(24)]
        assert [row["id"] for row in stream.returned_so_far] == truth


class TestSharedRowStorage:
    def test_top_and_returned_so_far_share_references(self, stream_reranker):
        stream = _make_stream(stream_reranker)
        fetched = stream.top(6)
        assert len(fetched) == 6
        # Shared references, not per-call deep copies (the O(n^2) regression).
        again = stream.top(6)
        so_far = stream.returned_so_far
        for first, second, third in zip(fetched, again, so_far):
            assert first is second is third

    def test_emitted_rows_are_immutable(self, stream_reranker):
        stream = _make_stream(stream_reranker)
        row = stream.get_next()
        assert row is not None
        with pytest.raises(TypeError):
            row["id"] = "mutated"

    def test_returned_so_far_equals_fetched_prefix(self, stream_reranker):
        stream = _make_stream(stream_reranker)
        fetched = stream.top(5)
        assert stream.returned_so_far == fetched
        assert stream.top(3) == fetched[:3]


class TestClose:
    def test_closed_stream_returns_none(self, stream_reranker):
        stream = _make_stream(stream_reranker)
        first = stream.get_next()
        assert first is not None
        stream.close()
        assert stream.get_next() is None
        assert stream.next_page(3) == []
        # The already-emitted prefix stays readable.
        assert stream.returned_so_far == [first]

    def test_close_is_idempotent(self, stream_reranker):
        stream = _make_stream(stream_reranker)
        stream.next_page(1)
        stream.close()
        stream.close()
        assert stream.closed

    def test_feed_survives_its_streams_close(self, bluenile_db):
        reranker = QueryReranker(bluenile_db, config=RerankConfig())
        first = _make_stream(reranker)
        first.next_page(4)
        first.close()
        # The feed outlives the stream: the next session still replays.
        second = _make_stream(reranker)
        rows = second.next_page(4)
        assert len(rows) == 4
        assert second.statistics.external_queries == 0

    def test_validation_errors_still_raise_before_stream_creation(
        self, stream_reranker
    ):
        from repro.core.functions import SingleAttributeRanking
        from repro.exceptions import QueryError, RankingFunctionError

        with pytest.raises((QueryError, RankingFunctionError, Exception)):
            stream_reranker.rerank(
                QUERY, SingleAttributeRanking("nonexistent"), algorithm=Algorithm.RERANK
            )
