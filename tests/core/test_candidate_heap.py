"""The per-stream candidate heap against the seed's sort-everything read of
the session cache, and machine-independent guards on how often an MD or MD-TA
stream scores a tuple: each reads its best candidate from its heap alone, so
no row is scored more than once."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import contour, regions
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.multidim import MultiDimGetNext
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.session import Session
from repro.core.ta import ThresholdAlgorithmGetNext
from repro.webdb.query import SearchQuery

from tests.conftest import dense_index_over
from tests.reference import reference_candidates

# --------------------------------------------------------------------------- #
# Differential: heap.best == reference(...)[0] after every step
# --------------------------------------------------------------------------- #
KEYS = [f"k{i}" for i in range(8)]
#: A coarse grid, so equal scores, re-remembered equal rows and rows sitting
#: exactly on the floor all occur.
GRID = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0])

rows = st.builds(lambda key, x, y: {"id": key, "x": x, "y": y}, st.sampled_from(KEYS), GRID, GRID)
weights = st.sampled_from([-1.0, -0.5, 0.5, 1.0])
rankings = st.one_of(
    st.builds(lambda wx, wy: LinearRankingFunction({"x": wx, "y": wy}), weights, weights),
    st.builds(lambda ascending: SingleAttributeRanking("x", ascending), st.booleans()),
)
filters = st.one_of(
    st.just(SearchQuery.everything()),
    st.builds(
        lambda low, width: SearchQuery.build(ranges={"y": (low, low + width)}),
        GRID,
        st.sampled_from([0.0, 2.0, 5.0]),
    ),
)
steps = st.one_of(
    # Rows arrive; a known key may come back unchanged or with new values
    # (a delta landing mid-session).
    st.tuples(st.just("remember"), st.lists(rows, min_size=1, max_size=4)),
    # The stream emits its best candidate and moves its frontier onto it
    # (inclusive, as MD does) or past it (exclusive, as 1D does).
    st.tuples(st.just("emit"), st.booleans()),
    # A row is handed to the user from elsewhere (a replayed feed position).
    st.tuples(st.just("mark"), rows),
    st.tuples(st.just("advance"), st.sampled_from([0.25, 1.0, 3.0])),
    # A second request on the same session: history cleared, cache kept.
    st.tuples(st.just("request"), st.tuples(rankings, filters)),
)


@settings(max_examples=300, deadline=None)
@given(first=st.tuples(rankings, filters), script=st.lists(steps, max_size=30))
def test_best_is_the_head_of_the_reference_list(first, script):
    session = Session("heap")
    seen, emitted = {}, set()  # the model: current version per key, keys shown
    ranking, query = first
    heap = session.cached_candidates(query, ranking, "id")
    floor, inclusive = -math.inf, True

    def check():
        expected = reference_candidates(seen, emitted, query, ranking, floor, "id", inclusive)
        best = heap.best(floor, inclusive)
        if not expected:
            assert best is None
            return None
        assert best is not None
        score, key_text, row = best
        assert row == expected[0] and key_text == str(row["id"])
        assert score == ranking.score(expected[0])
        return best

    check()
    for step, argument in script:
        if step == "remember":
            session.remember(argument, "id")
            seen.update((row["id"], row) for row in argument)
        elif step == "emit":
            best = check()
            if best is not None:
                session.mark_emitted(best[2], "id")
                emitted.add(best[2]["id"])
                floor, inclusive = best[0], argument
        elif step == "mark":
            session.mark_emitted(argument, "id")
            seen[argument["id"]] = argument
            emitted.add(argument["id"])
        elif step == "advance":
            if floor > -math.inf:
                floor += argument
        else:
            session.reset_for_new_request()
            emitted.clear()
            ranking, query = argument
            heap = session.cached_candidates(query, ranking, "id")
            floor, inclusive = -math.inf, True
        check()


def test_each_logged_version_is_scored_once():
    calls = []

    class Counting(SingleAttributeRanking):
        def score(self, row):
            calls.append(row["id"])
            return super().score(row)

    session = Session("once")
    heap = session.cached_candidates(SearchQuery.everything(), Counting("x"), "id")
    session.remember([{"id": "a", "x": 2.0}, {"id": "b", "x": 1.0}], "id")
    assert heap.best(-math.inf)[1] == "b"
    session.remember([{"id": "a", "x": 2.0}], "id")  # unchanged: not logged again
    session.remember([{"id": "b", "x": 3.0}], "id")  # changed: the old version goes stale
    assert heap.best(-math.inf)[1] == "a"
    assert heap.best(-math.inf)[1] == "a"
    assert sorted(calls) == ["a", "b", "b"]


# --------------------------------------------------------------------------- #
# Guards: scoring work per stream is linear in what the stream looked at
# --------------------------------------------------------------------------- #
def _counting_ranking(schema, counts):
    """The 3-attribute ranking of the guards, counting its score calls."""

    class Counting(LinearRankingFunction):
        def score(self, row):
            counts["score"] += 1
            return super().score(row)

    weights = {"price": 1.0, "carat": -0.5, "depth": 0.3}
    return Counting(weights, normalizer=MinMaxNormalizer.from_schema(schema, list(weights)))


def _lead_50(bluenile_db, driver, counts):
    """Lead one filtered query 50 rows deep through ``driver``, adding the
    number of distinct tuples the session saw to ``counts``."""
    session = Session("guard")
    engine = QueryEngine(bluenile_db, statistics=session.statistics)
    getnext = driver(
        engine=engine,
        base_query=SearchQuery.build(ranges={"price": (500.0, 9000.0)}),
        ranking=_counting_ranking(bluenile_db.schema, counts),
        session=session,
        dense_index=dense_index_over(engine),
    )
    assert all(getnext.next() is not None for _ in range(50))
    counts["seen"] = session.seen_count()
    return counts


def _md_lead_counts(bluenile_db, monkeypatch):
    """Lead one 3-attribute MD query 50 rows deep, counting score calls,
    ``score_bounds`` calls and boxes created (the initial space plus two per
    split)."""
    counts = {"score": 0, "bounds": 0, "boxes": 1}
    bounds = contour.score_bounds

    def counting_bounds(function, box):
        counts["bounds"] += 1
        return bounds(function, box)

    split = regions.split

    def counting_split(box, attribute):
        counts["boxes"] += 2
        return split(box, attribute)

    monkeypatch.setattr(contour, "score_bounds", counting_bounds)
    monkeypatch.setattr(regions, "split", counting_split)
    return _lead_50(bluenile_db, MultiDimGetNext, counts)


def test_md_stream_scores_each_tuple_a_bounded_number_of_times(bluenile_db, monkeypatch):
    """Rows are scored only when the stream's heap absorbs them — never
    again per answer or per Get-Next — so the calls are bounded by what the
    stream saw, not by depth × cache size (the seed: ~21 000 here), nor by
    a second fold of every answer (911 calls for 258 tuples when MD kept
    one)."""
    counts = _md_lead_counts(bluenile_db, monkeypatch)
    assert counts["score"] <= counts["seen"]


def test_ta_stream_scores_each_tuple_at_most_once(bluenile_db):
    """MD-TA reads the same kind of heap: each tuple its streams hand over
    is scored once, however many lists it turns up on."""
    counts = _lead_50(bluenile_db, ThresholdAlgorithmGetNext, {"score": 0})
    assert 0 < counts["score"] <= counts["seen"]


def test_md_box_bounds_are_computed_once_per_box(bluenile_db, monkeypatch):
    """The score bounds of a box are computed when it is created, not on
    every pass and every Get-Next that looks at it again (~830 calls for 133
    boxes here when they were)."""
    counts = _md_lead_counts(bluenile_db, monkeypatch)
    assert counts["bounds"] <= counts["boxes"] + 1
