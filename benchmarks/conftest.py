"""Options for ``bench_catalog_scale.py``, the nightly data-scale tier.

``pytest benchmarks/`` collects nothing (the module is named ``bench_*.py``):
run it by path.  It prints small tables (visible with ``-s`` or in the
captured output section) and stores its numbers in ``benchmark.extra_info``
so they land in the pytest-benchmark JSON output.  The paper's own numbers
are pinned by ``tests/workloads/paper_currency.txt``; request cost —
latency, throughput, external queries per page, per-layer time — is
measured by ``benchmarks/request_path/``.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-quick",
        action="store_true",
        default=False,
        help=(
            "CI smoke mode: shrink workloads and skip wall-clock speedup "
            "assertions (correctness gates still run)"
        ),
    )


@pytest.fixture(scope="session")
def bench_quick(request) -> bool:
    return bool(request.config.getoption("--bench-quick"))
