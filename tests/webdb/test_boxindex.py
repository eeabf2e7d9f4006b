"""BoxIndex against brute force: a covering walk yields every stored box
that contains the probe, whatever sequence of adds and discards built it."""

import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webdb.boxindex import BoxIndex
from repro.webdb.query import InPredicate, RangePredicate, SearchQuery

GRID = [-math.inf, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0, math.inf]


@functools.lru_cache(maxsize=None)
def _pairs(lower, upper):
    return tuple(
        (low, high)
        for low in GRID
        for high in GRID
        if lower <= low <= high <= upper and low != math.inf and high != -math.inf
    )


@st.composite
def _boxes(draw, within=None):
    """A box on ``GRID``, or (``within`` given) one inside ``within``'s
    bounds, which ``within`` contains unless an inclusive flag breaks it."""
    ranges = []
    for attribute in ("a", "b"):
        outer = within.range_on(attribute) if within is not None else None
        if outer is None and (within is not None or attribute == "b") and draw(st.integers(0, 2)):
            continue
        lower, upper = (outer.lower, outer.upper) if outer else (-math.inf, math.inf)
        low, high = draw(st.sampled_from(_pairs(lower, upper)))
        flags = 3 if low == high else draw(st.integers(0, 3))
        ranges.append(RangePredicate(attribute, low, high, bool(flags & 1), bool(flags & 2)))
    memberships = ()
    if within is not None and within.memberships:
        memberships = within.memberships
    elif draw(st.integers(0, 5)) == 0:
        memberships = (InPredicate.of("c", draw(st.sets(st.sampled_from("xy"), min_size=1))),)
    return SearchQuery(tuple(ranges), memberships)


@settings(max_examples=25, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.integers(0, 3).map(bool), st.integers(0, 24), _boxes()), min_size=15, max_size=40
    ),
    data=st.data(),
)
def test_covering_yields_every_containing_box(operations, data):
    index = BoxIndex()
    stored = {}
    for add, key, box in operations:
        if add:
            index.add(key, box, key)
            stored[key] = box
        else:
            index.discard(key)
            stored.pop(key, None)
    assert len(index) == len(stored)
    # Every stored box is found by a walk for itself: the index holds them all.
    assert all(key in set(index.covering(box)) for key, box in stored.items())
    probes = [
        data.draw(_boxes(data.draw(st.sampled_from(list(stored.values()))) if stored else None))
        for _ in range(8)
    ]
    for probe in probes:
        expected = {key for key, box in stored.items() if box.contains(probe)}
        yielded = list(index.covering(probe))
        assert len(yielded) == len(set(yielded))
        assert expected <= set(yielded)
    # The caller may discard the entry it was just handed and keep walking.
    expected = {key for key, box in stored.items() if box.contains(probes[0])}
    walked = set()
    for key in index.covering(probes[0]):
        walked.add(key)
        index.discard(key)
    assert expected <= walked
    assert len(index) == len(stored) - len(walked)


@settings(max_examples=40, deadline=None)
@given(
    boxes=st.lists(_boxes(), min_size=1, max_size=30),
    data=st.data(),
)
def test_covering_yields_no_box_that_fails_a_range_side(boxes, data):
    """Every yielded box contains the probe on each of its range sides, and
    every box that contains the probe whole is yielded."""
    index = BoxIndex()
    for key, box in enumerate(boxes):
        index.add(key, box, key)
    for _ in range(10):
        probe = data.draw(_boxes(data.draw(st.sampled_from(boxes))) if data.draw(st.booleans()) else _boxes())
        yielded = list(index.covering(probe))
        assert {key for key, box in enumerate(boxes) if box.contains(probe)} <= set(yielded)
        for key in yielded:
            for side in boxes[key].ranges:
                narrower = probe.range_on(side.attribute)
                assert narrower is not None and side.contains(narrower), (boxes[key], probe)
