"""QR2 reaches a site only through its top-k interface.

The simulated web databases — the site side — are the modules in
``SITE``.  QR2's own modules (the algorithms, the crawler, the service and
QR2's half of ``repro.webdb``) may not import any of them: a site is a
:class:`~repro.webdb.interface.TopKInterface` plus what the composition
roots wire in.  Exempt are those roots (``repro.webdb.build``,
``repro.workloads``), the package ``__init__`` exports, and
``repro.httpsim``, whose server is the site's front end.
``repro.webdb.ranking`` is shared: a federation merges shard pages with the
site's comparator.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

SITE = {f"repro.webdb.{name}" for name in ("database", "engine", "indexes", "arrays", "latency")}

QR2_WEBDB = (
    "query", "interface", "delta", "cache", "boxindex", "counters", "stack",
    "resilience", "remote", "faults", "federation",
)


def checked_modules():
    paths = [
        path
        for package in ("core", "crawl", "service")
        for path in sorted((PACKAGE / package).glob("*.py"))
        if path.name != "__init__.py"
    ]
    paths += [PACKAGE / "webdb" / f"{name}.py" for name in QR2_WEBDB]
    return paths


def imported_modules(path: Path):
    """Every module ``path`` names in an import, ``from a import b`` counting
    both ``a`` and ``a.b`` (``b`` may be a submodule)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_every_checked_module_exists():
    assert all(path.exists() for path in checked_modules())
    assert all((PACKAGE / "webdb" / f"{name.rsplit('.', 1)[1]}.py").exists() for name in SITE)


@pytest.mark.parametrize(
    "path", checked_modules(), ids=lambda path: f"{path.parent.name}.{path.stem}"
)
def test_qr2_imports_no_site_module(path):
    assert sorted(set(imported_modules(path)) & SITE) == []
