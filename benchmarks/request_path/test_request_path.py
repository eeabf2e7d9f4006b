"""Unit tests of the benchmark's own machinery (collected by the bare tier-1
``pytest``; no dependence on ``benchmarks/conftest.py`` options)."""

from __future__ import annotations

import json
import pathlib
import statistics

from benchmarks.request_path import metrics, replay, run, spans, stats, traces
from benchmarks.request_path.oracle import PAGE_SIZE, Oracle

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------- #
# Order statistics
# ---------------------------------------------------------------------- #
def test_percentile_is_a_weighted_mean_of_order_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0  # symmetric sample, symmetric weights
    assert 4.0 < stats.percentile(values, 90) < 5.0
    assert stats.percentile(values, 10) < stats.percentile(values, 50) < stats.percentile(values, 90)
    assert stats.percentile([7.0], 95) == 7.0
    assert stats.percentile([], 50) is None
    # Moving one value between two neighbours moves the estimate a little,
    # never by the whole gap as a two-neighbour interpolation would.
    spaced = [float(value) for value in range(1, 41)]
    nudged = spaced[:35] + [36.9] + spaced[36:]
    assert 0.0 < stats.percentile(nudged, 90) - stats.percentile(spaced, 90) < 0.3


def test_beta_cdf_matches_known_values():
    assert abs(stats.beta_cdf(2.0, 3.0, 0.4) - 0.5248) < 1e-9
    assert abs(stats.beta_cdf(20.5, 20.5, 0.5) - 0.5) < 1e-9
    assert stats.beta_cdf(3.0, 2.0, 0.0) == 0.0 and stats.beta_cdf(3.0, 2.0, 1.0) == 1.0


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 9.0, 1.0, 7.0, 5.0, 11.0, 13.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, 7.0, q3)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    summary = stats.summarize([None, 2.0, 4.0, 6.0])
    assert summary is not None and summary["median"] == 4.0 and summary["n"] == 3
    assert stats.summarize([None]) is None


def test_verdict_follows_the_spread_rule():
    def cell(median, half_width):
        return {
            "median": median, "q1": median - half_width, "q3": median + half_width,
            "min": median - 2 * half_width, "max": median + 2 * half_width, "n": 5,
        }  # fmt: skip

    assert stats.verdict(cell(100, 1), cell(105, 1), 0.10, "lower")[0] == "ok"
    assert stats.verdict(cell(100, 1), cell(115, 1), 0.10, "lower")[0] == "regressed"
    assert stats.verdict(cell(100, 1), cell(85, 1), 0.10, "higher")[0] == "regressed"
    # Spread wider than the bound: neither unchanged nor regressed ...
    assert stats.verdict(cell(100, 8), cell(104, 8), 0.10, "lower")[0] == "unresolved"
    # ... unless every new run reads better than every base run.
    assert stats.verdict(cell(100, 8), cell(50, 8), 0.10, "lower")[0] == "ok"
    assert stats.verdict(None, cell(1, 0), 0.10, "lower")[0] == "undefined"


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_children():
    # root 0-10; children 1-4 and 3-6 overlap (union 1-6), 8-12 overruns the
    # root (clipped to 8-10); a grandchild 2-3 only reduces its own parent.
    tree = [
        (1, 0, 0.0, 10.0, 0, 1),
        (2, 1, 1.0, 4.0, 1, 1),
        (3, 1, 3.0, 6.0, 1, 1),
        (4, 2, 8.0, 12.0, 1, 1),
        (5, 3, 2.0, 3.0, 2, 1),
    ]
    own = spans.self_times(tree)
    assert own[1] == 10.0 - (5.0 + 2.0)
    assert own[2] == 3.0 - 1.0
    assert own[3] == 3.0 and own[4] == 4.0 and own[5] == 1.0


def test_span_targets_resolve_and_a_vanished_one_is_only_listed():
    for dotted, _ in spans.SPAN_TARGETS:
        assert spans.resolve(dotted) is not None, dotted
    for dotted in (spans.SCORE, spans.NORMALIZE, spans.CONTAINS, *spans.HANDOFFS):
        assert spans.resolve(dotted) is not None, dotted
    assert spans.resolve("repro.core.session.Session.no_such_method") is None
    assert spans.resolve("repro.no_such_module.Thing.method") is None


# ---------------------------------------------------------------------- #
# Traces
# ---------------------------------------------------------------------- #
def test_traces_are_a_pure_function_of_the_seed():
    for workload in traces.WORKLOADS:
        first = traces.build_trace(workload, 11, traces.DEFAULT_SECONDS)
        again = traces.build_trace(workload, 11, traces.DEFAULT_SECONDS)
        other = traces.build_trace(workload, 12, traces.DEFAULT_SECONDS)
        assert first.fingerprint() == again.fingerprint()
        assert first.fingerprint() != other.fingerprint()
    lead = traces.build_trace("cold_lead", 11, traces.DEFAULT_SECONDS)
    assert sorted(lead.sessions) == list(range(len(lead.queries)))  # every query led once
    assert len({query.identity() for query in traces.deck(len(traces.DECK))}) == len(traces.DECK)
    follow = traces.build_trace("warm_follow", 11, traces.DEFAULT_SECONDS)
    assert follow.follow_only and not lead.follow_only
    assert all(query.algorithm == "rerank" for query in follow.queries)
    churn = traces.build_trace("churn_mix", 11, traces.DEFAULT_SECONDS)
    assert churn.deltas and all(len(deltas) == len(traces.SOURCES) for deltas in churn.deltas.values())


def test_zipf_counts_do_not_depend_on_the_seed():
    import random

    first = traces.zipf_sessions(random.Random(1), 48, 300, 10)
    other = traces.zipf_sessions(random.Random(2), 48, 300, 10)
    assert first != other and sorted(first) == sorted(other)
    assert first.count(0) > first.count(1) > first.count(5) >= first.count(40)


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #
def _serve(oracle: Oracle, index: int):
    """The session a correct program would report for session ``index``."""
    expectation = oracle.expected[index]
    shadow = oracle.shadows[expectation.query.source]
    ranking, search = expectation.ranking, expectation.search
    answers = sorted(
        (row for row in shadow.rows if search.matches(row)),
        key=lambda row: (ranking.score(row), str(row["id"])),
    )[: len(expectation.scores)]
    pages = [answers[start : start + PAGE_SIZE] for start in range(0, len(answers), PAGE_SIZE)]
    return ranking, {
        "query": index,
        "statuses": [200] * len(pages),
        "degraded": [False] * len(pages),
        "keys": [[row["id"] for row in page] for page in pages],
        "digests": [
            replay.page_digest([{name: row[name] for name in shadow.columns} for row in page])
            for page in pages
        ],
    }


def test_oracle_accepts_the_true_prefix_and_rejects_two_swapped_rows():
    trace = traces.build_trace("cold_lead", 5, traces.DEFAULT_SECONDS, quick=True)
    trace.sessions = trace.sessions[:3]
    oracle = Oracle(trace)
    assert oracle.check([_serve(oracle, index)[1] for index in range(3)]) == []

    # Swap the first row of session 0 with the first one that scores differently.
    ranking, swapped = _serve(oracle, 0)
    shadow = oracle.shadows[oracle.expected[0].query.source]
    rows = {row["id"]: row for row in shadow.rows}
    keys = swapped["keys"][0]
    other = next(
        position for position, key in enumerate(keys)
        if abs(ranking.score(rows[key]) - ranking.score(rows[keys[0]])) > 1e-6
    )  # fmt: skip
    keys[0], keys[other] = keys[other], keys[0]
    swapped["digests"][0] = replay.page_digest(
        [{name: rows[key][name] for name in shadow.columns} for key in keys]
    )
    problems = oracle.check([swapped, _serve(oracle, 1)[1], _serve(oracle, 2)[1]])
    assert len(problems) == 1 and "session 0" in problems[0] and "scores" in problems[0]

    # The right keys in the right order, but not the catalog's rows.
    _, stale = _serve(oracle, 1)
    stale["digests"][0] = "0" * 16
    problems = oracle.check([_serve(oracle, 0)[1], stale, _serve(oracle, 2)[1]])
    assert len(problems) == 1 and "session 1" in problems[0] and "rows differ" in problems[0]


def test_oracle_stops_judging_at_the_first_degraded_page():
    trace = traces.build_trace("cold_lead", 5, traces.DEFAULT_SECONDS, quick=True)
    trace.sessions = trace.sessions[:1]
    oracle = Oracle(trace)
    _, session = _serve(oracle, 0)
    session["degraded"][1] = True
    session["digests"][1] = "f" * 16  # would be wrong, but says it is partial
    assert oracle.check([session]) == []


# ---------------------------------------------------------------------- #
# The contract file and a smoke run
# ---------------------------------------------------------------------- #
def test_benchmark_json_repeats_the_tables_in_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["paths"] == ["benchmarks/request_path"]
    assert [w["name"] for w in declared["workloads"]] == list(traces.WORKLOADS)
    assert declared["run_seconds"] == traces.DEFAULT_SECONDS
    for_driver = [m for m in metrics.END_TO_END if m.name not in metrics.NOT_FOR_DRIVER]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in for_driver]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    assert per_layer == [
        (name, metrics.BY_NAME[name].unit, metrics.BY_NAME[name].better)
        for name in metrics.NOT_FOR_DRIVER
    ] + spans.PER_LAYER_SPEC


def test_quick_warm_follow_issues_no_external_query_in_the_timed_phase():
    result = run.run_workload(
        "warm_follow", seed=9, seconds=traces.DEFAULT_SECONDS, rounds=1, quick=True, traced=False
    )
    assert result["problems"] == []
    summary = result["summary"]
    assert summary["timed_ext_queries"]["median"] == 0
    assert summary["failed"]["median"] == 0
    assert summary["pages"]["median"] == traces.QUICK_SESSIONS * 4
    # The leads of set-up are on the run's bill.
    assert summary["ext_queries_per_page"]["median"] > 0
