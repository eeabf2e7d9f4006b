"""Shared fixtures for the paper-artifact benches.

Every paper artifact (figure / demonstration scenario) has its own benchmark
module; they all share one simulated environment so that numbers are
comparable across benches.  The environment is scaled down from the full
catalogs (``BENCH_SCALE``); pass ``--bench-scale 1.0`` for full-size
catalogs.  ``pytest benchmarks/`` collects nothing (modules are named
``bench_*.py``): run them by path.

Each benchmark prints a small paper-style table (visible with ``-s`` or in the
captured output section) and stores its headline numbers in
``benchmark.extra_info`` so they land in the pytest-benchmark JSON output.
Request cost — latency, throughput, external queries per page, per-layer
time — is not measured here but by ``benchmarks/request_path/``.
"""

from __future__ import annotations

import pytest

from repro.workloads.experiments import ExperimentEnvironment

#: Default catalog scale for benchmark runs (fraction of the full catalogs).
BENCH_SCALE = 0.25
#: Default number of results fetched per reranking request.
BENCH_DEPTH = 10


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default=str(BENCH_SCALE),
        help="catalog scale for the benchmark environment (1.0 = full size)",
    )
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
def bench_scale(request) -> float:
    return float(request.config.getoption("--bench-scale"))


@pytest.fixture(scope="session")
def bench_quick(request) -> bool:
    return bool(request.config.getoption("--bench-quick"))


@pytest.fixture(scope="session")
def environment(bench_scale) -> ExperimentEnvironment:
    """The shared simulated environment (both web databases)."""
    return ExperimentEnvironment(catalog_scale=bench_scale, system_k=20, latency_seconds=1.0)


@pytest.fixture(scope="session")
def depth() -> int:
    """Number of results fetched per reranking request in the benches."""
    return BENCH_DEPTH
