"""The statistics panel's and the result page's keys, their order and their
types: pin them."""

import pytest

from tests.service.panel_shape import capture, read_fixture


@pytest.fixture(scope="module")
def captured():
    return capture()


@pytest.mark.parametrize("name", ["unsharded", "sharded_faulty", "tier", "crawl", "page"])
def test_panel_shape_matches_the_committed_fixture(captured, name):
    """Regenerate ``panel_shape.json`` with ``python -m
    tests.service.panel_shape`` when a change reshapes the panel, and say so."""
    assert captured[name] == read_fixture()[name]
