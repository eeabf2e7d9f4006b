"""The measured process: one round of one workload.

Reads a *plan* (the generated inputs of a round, see ``plan.py``), builds the
service it describes, serves it on a real loopback socket and replays the
plan's sessions through ``http.client``.  Prints ``ready`` once the server is
accepting and warmed (the parent times set-up on that line), and the round's
raw measurements as one JSON object on the last line.

This is the only file of the benchmark that drives the system end to end, and
it imports nothing of ``repro`` beyond the configuration classes, the source
registry, the service, the concurrent tier and the socket front end — so the
layers underneath can be refactored without touching it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DatabaseConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.service.app import QR2Service
from repro.service.concurrent import ConcurrentQR2Application
from repro.service.httpapp import serve_qr2_over_socket
from repro.service.sources import DataSourceRegistry, build_default_registry
from repro.webdb.faults import FaultPlan

from benchmarks.request_path import speed

SYSTEM_K = 20
SERVING_WORKERS = 2
TRANSIENT_RATE = 0.10
SLOW_RATE = 0.05
#: What is kept of a page's statistics panel.
PANEL_COUNTERS = (
    "external_queries", "processing_seconds", "result_cache_hits", "contained_answers",
    "coalesced_queries", "feed_replayed_tuples", "feed_leader_advances",
)  # fmt: skip
DELTA_COUNTERS = ("cache_entries_retired", "feeds_retired", "regions_retired")


def service_config(plan: Dict[str, object]) -> ServiceConfig:
    """Production defaults except: one accounted (never slept) second per
    external query, two serving workers, and the plan's topology/faults."""
    seed = int(plan["seed"])  # type: ignore[arg-type]
    database = DatabaseConfig(
        system_k=SYSTEM_K,
        latency_seconds=1.0,
        latency_jitter=0.0,
        latency_sleep=False,
        seed=seed,
        shards=int(plan["shards"]),  # type: ignore[arg-type]
        shard_by="rank",
        fault_plan=(
            FaultPlan(seed=seed, transient_rate=TRANSIENT_RATE, slow_rate=SLOW_RATE)
            if plan["faulty"]
            else None
        ),
    )
    return ServiceConfig(database=database, serving_workers=SERVING_WORKERS)


def build_registry(plan: Dict[str, object], config: ServiceConfig) -> DataSourceRegistry:
    """Both simulated sources at the plan's catalog size and seed."""
    size = int(plan["catalog_size"])  # type: ignore[arg-type]
    seed = int(plan["seed"])  # type: ignore[arg-type]
    return build_default_registry(
        diamond_config=DiamondCatalogConfig(size=size, seed=seed),
        housing_config=HousingCatalogConfig(size=size, seed=seed + 1),
        database_config=config.database,
        rerank_config=config.rerank,
    )


def page_digest(rows: List[Dict[str, object]]) -> str:
    """Canonical digest of a page's rows (the oracle digests its expected
    rows the same way, so whole rows are compared, not only their keys)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


class Client:
    """A minimal closed-loop caller: one connection, one request at a time."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self._connection = http.client.HTTPConnection(address[0], address[1], timeout=120)
        #: Set by the tracer to learn which local port carries the request,
        #: the identity by which the server-side span finds its parent.
        self.on_connect: Optional[Callable[[int], None]] = None

    def post(self, path: str, payload: Dict[str, object]) -> Tuple[int, Dict[str, object], int]:
        """POST ``payload`` and return ``(status, parsed body, body bytes)``."""
        connection = self._connection
        if connection.sock is None:
            # The server speaks HTTP/1.0 and closes after every reply, so
            # every request opens the (one) connection anew.
            connection.connect()
        if self.on_connect is not None:
            self.on_connect(connection.sock.getsockname()[1])
        connection.request(
            "POST", path, body=json.dumps(payload), headers={"content-type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw), len(raw)

    def close(self) -> None:
        self._connection.close()


def run_session(
    client: Client, plan: Dict[str, object], query_index: int, next_pages: int
) -> Dict[str, object]:
    """Create a session, submit the query, page ``next_pages`` times; returns
    what the session observed, one list entry per request or per page."""
    statuses: List[int] = []
    latencies: List[float] = []
    digests: List[str] = []
    keys: List[List[object]] = []
    degraded: List[bool] = []
    record: Dict[str, object] = {
        "query": query_index, "statuses": statuses, "latencies": latencies, "digests": digests,
        "keys": keys, "degraded": degraded, "bytes": 0,
        # The last page's statistics panel: the session's cumulative counters.
        "panel": dict.fromkeys(PANEL_COUNTERS, 0),
    }  # fmt: skip
    queries: List[Dict[str, object]] = plan["queries"]  # type: ignore[assignment]
    status, body, _ = client.post("/qr2/sessions", {})
    if status != 200:
        raise SystemExit(f"session creation answered {status}: {body}")
    session_id = body["session_id"]
    for page in range(1 + next_pages):
        if page == 0:
            path, payload = "/qr2/query", dict(queries[query_index], session_id=session_id)
        else:
            path, payload = "/qr2/next", {"session_id": session_id}
        started = time.perf_counter()
        status, body, size = client.post(path, payload)
        latencies.append((time.perf_counter() - started) * 1000.0)
        statuses.append(status)
        if status == 429:
            raise SystemExit(f"{path} was shed with 429: the queue was sized never to shed")
        if status != 200:
            continue
        rows: List[Dict[str, object]] = body["rows"]  # type: ignore[assignment]
        digests.append(page_digest(rows))
        keys.append([row["id"] for row in rows])
        degraded.append(bool(body["degraded"]))
        record["bytes"] += size  # type: ignore[operator]
        record["panel"] = {name: body["statistics"][name] for name in PANEL_COUNTERS}  # type: ignore[index]
    return record


def replay(
    plan: Dict[str, object],
    service: QR2Service,
    address: Tuple[str, int],
    prepare_client: Optional[Callable[[Client], None]] = None,
) -> Dict[str, object]:
    """The timed phase: every client thread walks its share of the plan's
    sessions, the plan's deltas land between sessions, and between sessions
    the thread probes the sandbox's speed."""
    sessions: List[int] = plan["sessions"]  # type: ignore[assignment]
    deltas: Dict[str, Dict[str, List[Dict[str, object]]]] = plan["deltas"]  # type: ignore[assignment]
    clients = int(plan["clients"])  # type: ignore[arg-type]
    next_pages = int(plan["next_pages"])  # type: ignore[arg-type]
    records: List[Optional[Dict[str, object]]] = [None] * len(sessions)
    delta_ms: List[float] = []
    delta_summaries: List[Dict[str, int]] = []
    probe_ms: List[float] = []
    probe_seconds = [0.0] * clients
    client_seconds = [0.0] * clients
    errors: List[BaseException] = []

    def work(lane: int) -> None:
        client = Client(address)
        if prepare_client is not None:
            prepare_client(client)
        lane_started = time.perf_counter()
        probed = -speed.PROBE_EVERY_SECONDS
        try:
            for index in range(lane, len(sessions), clients):
                if time.perf_counter() - probed >= speed.PROBE_EVERY_SECONDS:
                    probed = time.perf_counter()
                    probe_ms.append(speed.probe())
                    probe_seconds[lane] += time.perf_counter() - probed
                for source, rows in deltas.get(str(index), {}).items():
                    started = time.perf_counter()
                    summary = service.apply_delta(source, upserts=rows)
                    delta_ms.append((time.perf_counter() - started) * 1000.0)
                    delta_summaries.append({name: int(summary[name]) for name in DELTA_COUNTERS})  # type: ignore[call-overload]
                records[index] = run_session(client, plan, sessions[index], next_pages)
        except BaseException as error:  # noqa: BLE001 - re-raised on the main thread
            errors.append(error)
        finally:
            client_seconds[lane] = time.perf_counter() - lane_started
            client.close()

    cpu_started = time.process_time()
    wall_started = time.perf_counter()
    if clients == 1:
        work(0)
    else:
        threads = [threading.Thread(target=work, args=(lane,)) for lane in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - wall_started
    cpu = time.process_time() - cpu_started
    if errors:
        raise errors[0]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "client_s": client_seconds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sessions": records,
        "delta_ms": delta_ms,
        "delta_summaries": delta_summaries,
        "probe_ms": probe_ms,
        "probe_s": sum(probe_seconds),
    }


def warm_up(plan: Dict[str, object], address: Tuple[str, int]) -> Dict[str, float]:
    """Lead every warm query ``warm_pages`` deep (part of set-up, untimed);
    returns what the leads cost."""
    client = Client(address)
    cost = dict.fromkeys(PANEL_COUNTERS, 0.0)
    try:
        for query_index in plan["warm"]:  # type: ignore[union-attr]
            record = run_session(client, plan, query_index, int(plan["warm_pages"]) - 1)  # type: ignore[arg-type]
            if any(status != 200 for status in record["statuses"]):  # type: ignore[union-attr]
                raise SystemExit(f"warm-up of query {query_index} answered {record['statuses']}")
            for name in PANEL_COUNTERS:
                cost[name] += record["panel"][name]  # type: ignore[index]
    finally:
        client.close()
    return cost


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.  Under the GIL a second
    core buys the server nothing but cross-core wake-ups, and on the shared
    host those are what varies most: six rounds of ``warm_follow`` served
    404-507 pages/s pinned against 184-336 free."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: List[str]) -> int:
    pin_to_one_cpu()
    plan_path = argv[0]
    spans_path = argv[1] if len(argv) > 1 else None
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = None
    if spans_path is not None:
        from benchmarks.request_path import spans

        tracer = spans.Tracer()
        tracer.install()
    config = service_config(plan)
    service = QR2Service(registry=build_registry(plan, config), config=config)
    application = ConcurrentQR2Application(service)
    server = serve_qr2_over_socket(application)
    try:
        warm = warm_up(plan, server.address)
        print("ready", flush=True)
        if tracer is not None:
            tracer.begin()
        result = replay(
            plan, service, server.address, tracer.prepare_client if tracer is not None else None
        )
        result["workload"] = plan["workload"]
        result["warm"] = warm
        result["tier"] = application.tier.snapshot()
        if tracer is not None:
            result["layers"] = tracer.finish(result, service, spans_path)
    finally:
        server.shutdown()
        application.close()
    print(json.dumps(result, separators=(",", ":")))
    return 0

