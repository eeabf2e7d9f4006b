"""A live stream's proof: the 1D verified prefix and what voids it.

A 1D stream keeps the oriented value up to which every matching tuple is in
its session cache; a Get-Next whose best cached candidate lies inside it
issues no query.  Only a covering, fresh answer extends it, and a catalog
change that can match the stream's filter query voids it — as it voids the
MD stream's open boxes and restarts MD-TA's lists.  A change also drops
every row it touched from the session cache, so no stream, live or built
later on the same session, serves a cached row of an older version.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.normalization import MinMaxNormalizer
from repro.core.onedim import OneDimGetNext, OneDimVariant
from repro.core.parallel import QueryEngine
from repro.core.reranker import Algorithm
from repro.core.session import ChangeWatch, Session
from repro.webdb.delta import CatalogDelta, ChangeLog, ChangeLogs
from repro.webdb.interface import Outcome
from repro.webdb.query import SearchQuery

from tests.workloads.paper_currency import environment, read_table


def _onedim(database, query, degraded=False):
    """A 1D-RERANK stream by price over ``database``; with ``degraded`` every
    answer it receives is marked as missing part of the source."""
    session = Session("prefix")
    engine = QueryEngine(database, statistics=session.statistics)
    if degraded:
        search = engine.search
        engine.search = lambda q, bypass_cache=False: replace(  # type: ignore[method-assign]
            search(q, bypass_cache), degraded=True
        )
    stream = OneDimGetNext(
        engine=engine,
        base_query=query,
        ranking=SingleAttributeRanking("price", ascending=True),
        session=session,
        variant=OneDimVariant.RERANK,
        dense_index=DenseRegionIndex(database.schema),
    )
    return stream, engine


@pytest.mark.parametrize("degraded", [False, True])
def test_only_a_fresh_covering_answer_lets_the_next_call_skip_its_query(
    bluenile_db, degraded
):
    # Few enough stones that the first broad query returns them all (VALID).
    query = SearchQuery.build(ranges={"carat": (2.5, 5.0)})
    assert bluenile_db.search(query).outcome is Outcome.VALID
    stream, engine = _onedim(bluenile_db, query, degraded=degraded)
    assert stream.next() is not None
    before = engine.queries_issued()
    assert stream.next() is not None
    paid = engine.queries_issued() - before
    # A degraded VALID answer proves nothing: the second call pays again.
    assert paid > 0 if degraded else paid == 0


def test_a_stream_whose_prefix_reaches_the_domain_edge_is_exhausted(bluenile_db):
    query = SearchQuery.build(ranges={"carat": (2.5, 5.0)})
    truth = bluenile_db.all_matches(query)
    stream, engine = _onedim(bluenile_db, query)
    rows = [stream.next() for _ in range(len(truth))]
    spent = engine.queries_issued()
    assert sorted(row["id"] for row in rows) == sorted(row["id"] for row in truth)
    assert stream.next() is None
    assert engine.queries_issued() == spent


_DELTA = CatalogDelta.from_rows("db", "id", [{"id": 1, "price": 50.0}], upserts=1)


def _overflow(log):
    """Log more deltas than ``log`` keeps, touching nothing any test reads:
    a stamp from before them can no longer be checked."""
    far = CatalogDelta.from_rows("db", "id", [{"id": 9, "price": 20000.0}], upserts=1)
    for _ in range(ChangeLog.LIMIT + 1):
        log.record(far)


def test_change_log_reports_the_deltas_since_a_stamp():
    log = ChangeLog()
    log.record(_DELTA)
    assert log.since(0) == (1, [_DELTA])
    assert log.since(1) == (1, [])
    for _ in range(ChangeLog.LIMIT):
        log.record(_DELTA)
    assert log.since(1) == (1 + ChangeLog.LIMIT, [_DELTA] * ChangeLog.LIMIT)
    # A stamp older than the log's tail cannot be checked: anything may
    # have changed.
    assert log.since(0) == (1 + ChangeLog.LIMIT, None)


def test_change_logs_keep_one_log_per_namespace():
    logs = ChangeLogs()
    first, second = logs("a"), logs("b")
    assert logs("a") is first
    first.record(_DELTA)
    assert (first.sequence, second.sequence) == (1, 0)


def test_change_logs_lose_no_change_to_concurrent_first_use():
    """Threads that meet a namespace for the first time together must share
    one log: a second log would drop the changes recorded in it."""
    logs, workers, rounds = ChangeLogs(), 8, 2000
    start = threading.Barrier(workers)

    def work() -> None:
        start.wait(timeout=30.0)
        for step in range(rounds):
            logs(f"ns{step}").record(_DELTA)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(logs(f"ns{step}").sequence == workers for step in range(rounds))


def test_a_watch_sees_only_changes_that_can_match_its_query():
    log, session = ChangeLog(), Session("watch")
    cheap = ChangeWatch(log, session, SearchQuery.build(ranges={"price": (0.0, 100.0)}))
    dear = ChangeWatch(log, session, SearchQuery.build(ranges={"price": (5000.0, 9000.0)}))
    log.record(_DELTA)
    assert cheap.changed() and not dear.changed()
    assert not cheap.changed()
    _overflow(log)
    assert cheap.changed() and dear.changed()


def test_a_session_drops_the_rows_a_logged_change_touched():
    log, session = ChangeLog(), Session("catch-up")
    session.remember([{"id": 1, "price": 40.0}, {"id": 2, "price": 60.0}], "id")
    session.catch_up(log)
    assert session.seen_count() == 2
    log.record(_DELTA)
    session.catch_up(log)
    assert session.seen_count() == 1
    _overflow(log)
    session.catch_up(log)
    assert session.seen_count() == 0


def _md_ranking(env):
    return LinearRankingFunction(
        {"price": 1.0, "carat": -0.5},
        normalizer=MinMaxNormalizer.from_schema(env.diamond_schema, ["price", "carat"]),
    )


@pytest.mark.parametrize("kind", ["1d", "md"])
def test_a_live_stream_sees_a_delta_that_matches_its_query(kind):
    """Upsert a copy of the last emitted row, priced a cent higher, between
    two pages: it ranks right after that row, so it must open page two."""
    env = environment()
    reranker = env.make_reranker(
        "bluenile", replace(env.rerank_config, enable_rerank_feed=False)
    )
    ranking = (
        _md_ranking(env) if kind == "md" else SingleAttributeRanking("price", ascending=True)
    )
    stream = reranker.rerank(SearchQuery.everything(), ranking, algorithm=Algorithm.RERANK)
    first = stream.next_page(5)
    copy = {**first[-1], "id": "copy-of-last", "price": first[-1]["price"] + 0.01}
    reranker.apply_delta(upserts=[copy])
    second = stream.next_page(5)
    rows = env.bluenile.all_matches(SearchQuery.everything())
    oracle = sorted(rows, key=lambda row: (ranking.score(row), str(row["id"])))
    assert second[0]["id"] == "copy-of-last"
    assert [row["id"] for row in first + second] == [row["id"] for row in oracle[:10]]


_RANKINGS = {
    "1d": (lambda env: SingleAttributeRanking("price", ascending=True), Algorithm.RERANK),
    "md": (_md_ranking, Algorithm.RERANK),
    "ta": (_md_ranking, Algorithm.TA),
}


def _oracle(env, query, ranking):
    rows = env.bluenile.all_matches(query)
    return [row["id"] for row in sorted(rows, key=lambda row: (ranking.score(row), str(row["id"])))]


def _feedless(env):
    return env.make_reranker("bluenile", replace(env.rerank_config, enable_rerank_feed=False))


@pytest.mark.parametrize("kind", sorted(_RANKINGS))
@pytest.mark.parametrize(
    "carat, change",
    [
        (None, "delete"),
        (None, "move"),
        ((2.0, 5.0), "delete"),
        ((2.0, 5.0), "move"),
        ((2.0, 5.0), "leave"),
    ],
)
def test_a_row_changed_between_pages_is_served_as_it_now_is(kind, carat, change):
    """Delete the two rows that would open page two, move them far down the
    ranking, or move them out of the filter: page two must follow the
    changed catalog, not the session's cached copies of the old rows."""
    env = environment()
    reranker = _feedless(env)
    query = SearchQuery.build(ranges={"carat": carat}) if carat else SearchQuery.everything()
    make_ranking, algorithm = _RANKINGS[kind]
    ranking = make_ranking(env)
    stream = reranker.rerank(query, ranking, algorithm=algorithm)
    first = stream.next_page(5)
    assert [row["id"] for row in first] == _oracle(env, query, ranking)[:5]
    rows = {row["id"]: row for row in env.bluenile.all_matches(query)}
    changed = _oracle(env, query, ranking)[5:7]
    if change == "delete":
        reranker.apply_delta(deletes=changed)
    elif change == "move":
        top = max(float(row["price"]) for row in rows.values())
        reranker.apply_delta(upserts=[{**rows[key], "price": top} for key in changed])
    else:
        reranker.apply_delta(upserts=[{**rows[key], "carat": 1.0} for key in changed])
    second = [row["id"] for row in stream.next_page(5)]
    assert second == _oracle(env, query, ranking)[5:10]
    assert not set(second) & set(changed)


@pytest.mark.parametrize("kind", sorted(_RANKINGS))
def test_a_new_request_on_a_reused_session_skips_a_deleted_row(kind):
    env = environment()
    reranker = _feedless(env)
    query = SearchQuery.build(ranges={"carat": (2.0, 5.0)})
    make_ranking, algorithm = _RANKINGS[kind]
    ranking = make_ranking(env)
    session = Session("reused")
    reranker.rerank(query, ranking, algorithm=algorithm, session=session).next_page(5)
    deleted = _oracle(env, query, ranking)[3:8]
    reranker.apply_delta(deletes=deleted)
    session.reset_for_new_request()
    stream = reranker.rerank(query, ranking, algorithm=algorithm, session=session)
    assert [row["id"] for row in stream.next_page(10)] == _oracle(env, query, ranking)[:10]


def test_a_delta_outside_the_query_keeps_the_proof():
    env = environment()
    reranker = env.make_reranker(
        "bluenile", replace(env.rerank_config, enable_rerank_feed=False)
    )
    query = SearchQuery.build(ranges={"carat": (0.2, 0.6)})
    stream = reranker.rerank(
        query, SingleAttributeRanking("price", ascending=True), algorithm=Algorithm.RERANK
    )
    stream.next_page(5)
    algorithm = stream._algorithm
    proven = algorithm._proven
    outside = env.bluenile.all_matches(SearchQuery.everything())[0]
    reranker.apply_delta(upserts=[{**outside, "id": "far-away", "carat": 4.9}])
    stream.next_page(1)
    assert algorithm._proven >= proven


def test_rerank_pays_no_more_than_binary_on_the_1d_table():
    """The 1D gate on the paper's own table: every 1D-RERANK cell costs at
    most its 1D-BINARY cell, and the dense index still amortizes the
    indexing workload to zero after its first repetition."""
    table = {
        (driver, scenario, algorithm): queries
        for driver, scenario, algorithm, queries, *_ in read_table()
    }
    scenarios = {scenario for driver, scenario, _ in table if driver == "sc_1d"}
    assert len(scenarios) == 9
    for scenario in scenarios:
        assert table["sc_1d", scenario, "rerank"] <= table["sc_1d", scenario, "binary"], scenario
    for repetition in range(2, 6):
        assert table["sc_idx", f"repetition_{repetition}", "rerank"] == 0


@pytest.mark.parametrize("fails_once", [False, True])
def test_a_queued_tie_follows_a_delta(fails_once):
    """Five stones share the lowest price, so the first Get-Next emits one
    and queues four.  Delete one queued stone and move another to a higher
    price between two calls: the rest of the stream follows the changed
    catalog, not the queue — also when the first call after the change
    fails and the next one resolves the group instead."""
    env = environment()
    reranker = _feedless(env)
    query = SearchQuery.everything()
    ranking = SingleAttributeRanking("price", ascending=True)
    stream = reranker.rerank(query, ranking, algorithm=Algorithm.RERANK)
    first = [row["id"] for row in stream.next_page(1)]
    tied = _oracle(env, query, ranking)[:5]
    assert first == tied[:1]
    rows = {row["id"]: row for row in env.bluenile.all_matches(query)}
    assert {float(rows[key]["price"]) for key in tied} == {300.0}
    deleted, moved = tied[1], tied[2]
    reranker.apply_delta(deletes=[deleted], upserts=[{**rows[moved], "price": 305.0}])
    if fails_once:
        engine = stream._algorithm._engine
        search = engine.search

        def down(*args, **kwargs):
            engine.search = search
            raise RuntimeError("source down")

        engine.search = down
        with pytest.raises(RuntimeError):
            stream.next_page(1)
    rest = [row["id"] for row in stream.next_page(8)]
    assert first + rest == _oracle(env, query, ranking)[:9]
    assert deleted not in rest and rest.index(moved) > rest.index(tied[4])
