"""The paper's metric is exact and machine-independent: pin it."""

from tests.workloads.paper_currency import measure, read_table


def test_external_queries_match_the_committed_table():
    """Regenerate ``paper_currency.txt`` with ``python -m
    tests.workloads.paper_currency`` when a change moves what QR2 pays, and
    say so (a rise is a regression unless argued for)."""
    assert measure() == read_table()
