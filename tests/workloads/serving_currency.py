"""The serving workloads' first currency: what each request-path workload pays.

``paper_currency.txt`` pins what each paper cell pays, but every cell runs on
a nearly fresh cache, so what one session leaves for the next (the result
cache shared across sessions, containment, feeds, coalesced regions) shows
only on the serving workloads of ``benchmarks/request_path``.  This module
replays their ``--quick`` plans (``traces.build_trace``, a pure function of
the seed; imported read-only) in-process: the same service configuration and
catalogs as ``replay.py``, driven through :class:`~repro.service.app.QR2Service`
directly instead of over a socket, and every page checked against the
benchmark's oracle.  For each workload and seed it lists

* ``pages`` — the pages served;
* ``external_queries`` — the paper's metric, warm-up leads included, and
  ``ext_per_page``, the benchmark's ``ext_queries_per_page``;
* ``cache_hits``, ``contained`` and ``coalesced`` — the queries the result
  cache answered, by how;
* ``shard_queries`` and ``degraded_pages`` — on ``shard_faulty``, the queries
  the federation's shards answered and the pages marked partial; ``-``
  elsewhere.

``serving_currency.txt`` beside this file is that list; it is regenerated,
never edited::

    PYTHONPATH=src:. python -m tests.workloads.serving_currency

and ``test_serving_currency.py`` asserts it by exact equality.

Where a figure differs from ``run.py --quick``'s: sessions run one after
another on one thread here, while ``warm_follow`` replays over two client
threads there.  Its timed phase issues no query either way, so its counters
agree; only a run whose two clients miss on one key at once would coalesce.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.request_path import replay, traces
from benchmarks.request_path.oracle import Oracle
from repro.service.app import QR2Service

TABLE = Path(__file__).with_name("serving_currency.txt")
SEEDS = (2026, 7)
HEADER = (
    "workload", "seed", "pages", "external_queries", "ext_per_page", "cache_hits",
    "contained", "coalesced", "shard_queries", "degraded_pages",
)

#: One line of the table: the header's columns, ``None`` rendered ``-``.
Row = Tuple[str, int, int, int, str, int, int, int, Optional[int], Optional[int]]


def _session(service: QR2Service, plan: Dict[str, object], query_index: int, pages: int) -> Dict[str, object]:
    """One session of ``1 + pages`` pages, recorded as ``replay.run_session``
    records it (what :meth:`Oracle.check` reads)."""
    queries: List[Dict[str, object]] = plan["queries"]  # type: ignore[assignment]
    payload = queries[query_index]
    session_id = service.create_session()
    served = [
        service.submit_query(
            session_id,
            str(payload["source"]),
            filters=payload.get("filters"),  # type: ignore[arg-type]
            sliders=payload["sliders"],  # type: ignore[arg-type]
            algorithm=str(payload["algorithm"]),
        )
    ]
    served += [service.get_next_page(session_id) for _ in range(pages)]
    return {
        "query": query_index,
        "statuses": [200] * len(served),
        "digests": [replay.page_digest(page["rows"]) for page in served],  # type: ignore[arg-type]
        "keys": [[row["id"] for row in page["rows"]] for page in served],  # type: ignore[union-attr]
        "degraded": [bool(page["degraded"]) for page in served],
        "panel": served[-1]["statistics"],
    }


def measure_workload(workload: str, seed: int) -> Row:
    """Replay ``workload``'s ``--quick`` plan at ``seed``; raises when a page
    differs from the oracle's."""
    trace = traces.build_trace(workload, seed, traces.DEFAULT_SECONDS, quick=True)
    oracle = Oracle(trace)
    plan = oracle.plan
    config = replay.service_config(plan)
    service = QR2Service(registry=replay.build_registry(plan, config), config=config)
    try:
        warm = [
            _session(service, plan, index, trace.warm_pages - 1) for index in plan["warm"]  # type: ignore[union-attr]
        ]
        timed = []
        deltas: Dict[str, Dict[str, list]] = plan["deltas"]  # type: ignore[assignment]
        for position, index in enumerate(trace.sessions):
            for source, rows in deltas.get(str(position), {}).items():
                service.apply_delta(source, upserts=rows)
            timed.append(_session(service, plan, index, trace.next_pages))
        problems = oracle.check(timed)
        if problems:
            raise AssertionError(f"{workload} at seed {seed}: " + "; ".join(problems[:3]))
        federations = [
            service.registry.get(name).reranker.federation for name in service.registry.names()
        ]
    finally:
        service.close()
    panels = [record["panel"] for record in warm + timed]
    pages = sum(len(record["keys"]) for record in timed)  # type: ignore[arg-type]

    def total(name: str) -> int:
        return sum(int(panel[name]) for panel in panels)  # type: ignore[index]

    sharded = trace.shards > 1
    return (
        workload, seed, pages, total("external_queries"),
        f"{total('external_queries') / pages:.4f}", total("result_cache_hits"),
        total("contained_answers"), total("coalesced_queries"),
        sum(f.shard_queries_issued() for f in federations if f is not None) if sharded else None,
        sum(sum(record["degraded"]) for record in timed) if sharded else None,  # type: ignore[arg-type]
    )  # fmt: skip


def measure(seeds: Tuple[int, ...] = SEEDS) -> List[Row]:
    """Every workload at every seed, in a fixed order."""
    return [measure_workload(workload, seed) for seed in seeds for workload in traces.WORKLOADS]


def render(rows: List[Row]) -> str:
    cells = [HEADER] + [tuple("-" if cell is None else str(cell) for cell in row) for row in rows]
    widths = [max(len(row[column]) for row in cells) for column in range(len(HEADER))]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in cells
    )


def read_table(path: Path = TABLE) -> List[Row]:
    rows: List[Row] = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        workload, seed, pages, queries, per_page, hits, contained, coalesced, shard, degraded = line.split()
        rows.append(
            (workload, int(seed), int(pages), int(queries), per_page, int(hits), int(contained),
             int(coalesced), None if shard == "-" else int(shard),
             None if degraded == "-" else int(degraded))
        )  # fmt: skip
    return rows


if __name__ == "__main__":
    TABLE.write_text(render(measure()), encoding="utf-8")
    print(TABLE.read_text(encoding="utf-8"), end="")
