"""``wire.decode_result`` trusts a remote answer no further than the top-k
contract: a malformed one is refused before it can be cached and derived
from."""

import pytest

from repro.exceptions import WireFormatError
from repro.httpsim import wire
from repro.webdb.interface import Outcome
from repro.webdb.query import SearchQuery

QUERY = SearchQuery.build(ranges={"price": (500.0, 4000.0)})


def payload(outcome, rows, system_k=2):
    return {
        "outcome": outcome,
        "system_k": system_k,
        "elapsed_seconds": 0.0,
        "key_column": "id",
        "rows": rows,
    }


ROW = {"id": "t1", "price": 600.0}


@pytest.mark.parametrize(
    "malformed",
    [
        payload("underflow", [ROW]),  # would be cached as a covering entry
        payload("valid", []),
        payload("overflow", [dict(ROW, id=f"t{i}") for i in range(3)]),  # k is 2
        payload("valid", [{"price": 600.0}]),  # no key column
        payload("valid", ["t1"]),
        payload("valid", {"id": "t1"}),
        {key: value for key, value in payload("valid", [ROW]).items() if key != "key_column"},
    ],
    ids=[
        "underflow-with-a-row",
        "valid-without-rows",
        "more-rows-than-k",
        "row-without-key",
        "row-not-an-object",
        "rows-not-a-list",
        "no-key-column",
    ],
)
def test_a_malformed_answer_is_refused(malformed):
    with pytest.raises(WireFormatError):
        wire.decode_result(malformed, QUERY)


@pytest.mark.parametrize(
    "outcome, rows",
    [("underflow", []), ("valid", [ROW]), ("overflow", [ROW, dict(ROW, id="t2")])],
)
def test_a_well_formed_answer_decodes(outcome, rows):
    result = wire.decode_result(payload(outcome, rows), QUERY)
    assert result.outcome is Outcome(outcome)
    assert list(result.rows) == rows
