"""The paper's metric is exact and machine-independent: pin it."""

from tests.workloads.paper_currency import measure, read_table


def test_external_queries_match_the_committed_table():
    """Regenerate ``paper_currency.txt`` with ``python -m
    tests.workloads.paper_currency`` when a change moves what QR2 pays, and
    say so (a rise is a regression unless argued for)."""
    assert measure() == read_table()


def test_rerank_never_pays_more_than_binary_in_the_md_suites():
    """RERANK is BINARY plus the dense-region index: on the MD scenarios,
    sharded or not, it must not spend more external queries than BINARY."""
    cells = {row[:3]: row[3] for row in read_table()}
    compared = 0
    for (driver, scenario, algorithm), queries in cells.items():
        if driver in ("sc_md", "sc_fed") and algorithm == "rerank":
            assert queries <= cells[(driver, scenario, "binary")], (driver, scenario)
            compared += 1
    assert compared > 0
