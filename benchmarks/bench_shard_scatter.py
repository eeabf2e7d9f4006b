"""SC-SHARD — federated sharding: scatter-gather Get-Next and byte-identity.

PR 6 partitions a source's catalog across N per-shard hidden web databases
behind a :class:`~repro.webdb.federation.FederatedInterface`.  The federation
must be *invisible* to the reranking layer: the same query against the same
logical catalog has to produce the same pages in the same emission order as
the unsharded reference engine, whichever way the catalog is partitioned.
This bench enforces that:

* **SCATTER** — representative 1D and MD workloads per source run against
  federations of 2 and 4 shards (hidden-rank round-robin and ``price``-range
  partitions).  Pages must be byte-identical to the unsharded reference and
  the external-query count must stay within the 1.5x budget (it is exactly
  1.0x — the unmodified algorithms cannot see the shard layer).  A pruning
  probe (attribute sharding + a filter inside one partition) must skip
  non-intersecting shards and still match the reference byte for byte.
* **DIFFERENTIAL** — a randomized sweep over sources, shard counts,
  partitioning schemes, filters, rankings (1D and MD), and algorithms
  (BINARY/RERANK/TA): every page of every trial must be byte-identical
  between unsharded and federated, within the query budget.

The correctness gates (byte-identical pages, query budget) always run;
``--bench-quick`` shrinks the workload for CI.
"""

from __future__ import annotations

import pytest

from benchmarks._tables import print_table
from repro.workloads.experiments import run_shard_differential, run_shard_scatter

SHARD_COUNTS = (2, 4)
DEPTH = 10
QUERY_BUDGET = 1.5


@pytest.mark.benchmark(group="shard-scatter")
def test_shard_scatter_byte_identical(benchmark, environment, bench_quick):
    """Federated scatter-gather must reproduce the unsharded engine byte for
    byte at <= 1.5x the external queries (it is exactly 1.0x)."""
    shard_counts = (2,) if bench_quick else SHARD_COUNTS

    def run():
        return run_shard_scatter(environment, shard_counts=shard_counts, depth=DEPTH)

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    for source, data in payload.items():
        for label, workload in data["workloads"].items():
            rows = [
                f"{'shards':>7s} {'by':>6s} {'queries':>8s} "
                f"{'ratio':>6s} {'fanout':>7s} {'match':>6s}"
            ]
            for run_info in workload["runs"]:
                rows.append(
                    f"{run_info['shards']:>7d} {run_info['by']:>6s} "
                    f"{run_info['external_queries']:>8d} "
                    f"{run_info['query_ratio']:>6.2f} "
                    f"{run_info['fan_out']['total']:>7d} "
                    f"{str(run_info['pages_match']):>6s}"
                )
            rows.append(
                f"{'(ref)':>7s} {'-':>6s} "
                f"{workload['reference_queries']:>8d} {1.0:>6.2f}"
            )
            print_table(
                f"SC-SHARD [{source} / {label}] — federated vs unsharded",
                "external queries per run, identical workload",
                rows,
            )
            benchmark.extra_info.update(
                {
                    f"{source}_{label}_reference_queries": workload["reference_queries"],
                    f"{source}_{label}_max_scatter_ratio": workload["max_scatter_ratio"],
                }
            )
            # Correctness gates: always enforced.
            assert workload["all_pages_match"], (
                f"{source}/{label}: federated pages diverged from unsharded "
                f"reference: {workload['runs']}"
            )
            assert workload["max_scatter_ratio"] <= QUERY_BUDGET, (
                f"{source}/{label}: the federation exceeded the "
                f"{QUERY_BUDGET}x external-query budget "
                f"({workload['max_scatter_ratio']:.2f}x)"
            )
        probe = data["pruning_probe"]
        benchmark.extra_info.update(
            {
                f"{source}_pruned_shard_queries": probe["pruned_shard_queries"],
            }
        )
        assert probe["pages_match"], f"{source}: pruning probe diverged"
        assert probe["pruned_shard_queries"] > 0, (
            f"{source}: attribute sharding pruned no shard queries"
        )


@pytest.mark.benchmark(group="shard-scatter")
def test_shard_randomized_differential(benchmark, environment, bench_quick):
    """Randomized (source, shards, partitioning, filter, ranking, algorithm)
    trials: unsharded and federated pages must be byte-identical and the
    federation must hold the external-query budget."""
    trials = 4 if bench_quick else 8

    def run():
        return run_shard_differential(environment, trials=trials, pages=2, page_size=5)

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for trial in payload["trials"]:
        rows.append(
            f"{trial['trial']:>4d} {trial['source']:>9s} N={trial['shards']} "
            f"{trial['by']:>6s} {trial['algorithm']:>7s} "
            f"ref={trial['reference_queries']:>4d} "
            f"scatter={trial['scatter_queries']:>4d} "
            f"match={trial['pages_match']}"
        )
    print_table(
        "SC-SHARD-DIFF — randomized sharded/unsharded differential",
        f"{trials} random (source, shards, partition, filter, ranking) trials",
        rows,
    )
    benchmark.extra_info.update(
        {
            "trials": trials,
            "all_match": payload["all_match"],
            "max_scatter_ratio": payload["max_scatter_ratio"],
        }
    )
    for trial in payload["trials"]:
        assert trial["pages_match"], f"trial {trial['trial']} diverged: {trial}"
        assert trial["scatter_ratio"] <= payload["budget"], (
            f"trial {trial['trial']} broke the query budget: {trial}"
        )
    assert payload["all_match"]
    assert payload["scatter_within_budget"]
