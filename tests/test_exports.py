"""Every name a ``repro`` package exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def test_the_packages_are_found():
    assert {"repro.dataset", "repro.sqlstore", "repro.workloads"} <= set(PACKAGES)


@pytest.mark.parametrize("name", ["repro"] + PACKAGES)
def test_every_export_resolves(name):
    package = importlib.import_module(name)
    missing = [export for export in getattr(package, "__all__", ()) if not hasattr(package, export)]
    assert missing == []
