"""The serving workloads' first currency is a pure function of the seed: pin it."""

import pytest

import repro.core.reranker as reranker_module
from tests.workloads import paper_currency
from tests.workloads.serving_currency import SEEDS, measure, read_table


@pytest.mark.parametrize("seed", SEEDS)
def test_serving_workloads_match_the_committed_table(seed):
    """Regenerate ``serving_currency.txt`` with ``python -m
    tests.workloads.serving_currency`` when a change moves what a serving
    workload pays, and say so (a rise is a regression unless argued for).
    Every replayed page is checked against the benchmark's oracle."""
    assert measure((seed,)) == [row for row in read_table() if row[1] == seed]


def test_a_cross_session_loss_moves_this_table_and_not_the_paper_table(monkeypatch):
    """The seeded mutation this table exists to catch: with no rerank feed
    store, sessions stop sharing verified prefixes.  Every paper cell runs
    on a nearly fresh reranker and cannot see it; the serving workloads do."""
    monkeypatch.setattr(reranker_module, "RerankFeedStore", lambda: None)
    assert paper_currency.measure() == paper_currency.read_table()
    assert measure((SEEDS[0],)) != [row for row in read_table() if row[1] == SEEDS[0]]
