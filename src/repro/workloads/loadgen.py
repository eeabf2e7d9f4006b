"""Open-loop Zipf load generator for the QR2 serving tier.

The ROADMAP's north star is a service that survives heavy multi-user traffic,
and the shared rerank feed (PR 5) was built for exactly the access pattern
real search traffic exhibits: a **Zipf-distributed** query popularity mix — a
few head queries asked by thousands of users, a long tail asked once.  This
module generates that mix and replays it against any application object with
the ``handle(HttpRequest) -> HttpResponse`` shape:

* :func:`build_zipf_trace` draws a deterministic trace of user sessions; each
  session picks one query template by Zipf rank, submits it, and pages
  through ``pages_per_session`` Get-Next results.
* :func:`replay_sequential` executes the trace one request at a time — the
  serialized baseline concurrent runs are compared against.
* :func:`run_open_loop` executes it open-loop: session *arrivals* follow the
  trace's schedule regardless of completions (the workload-generation model
  of discrete-event service simulation), while requests *within* a session
  issue in order, preserving Get-Next semantics.  Admission rejections
  (HTTP 429) abort the rejected session's remaining requests, exactly like a
  load-shedding client.

Both runners return a :class:`LoadResult` recording per-request latencies,
status counts, wall-clock throughput, and a canonical page signature used by
``tests/workloads/test_loadgen.py`` to assert that concurrent execution serves
**byte-identical pages** to a sequential replay of the same trace.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.httpsim.messages import HttpRequest, HttpResponse

#: Per-source slider pools the template generator draws from (attribute name,
#: candidate weights).  Every attribute is rankable in the default registry's
#: schemas; weights stay inside the UI's [-1, 1] range.
_SLIDER_POOLS: Dict[str, List[str]] = {
    "bluenile": ["price", "carat", "depth", "table"],
    "zillow": ["price", "squarefeet", "bedrooms", "bathrooms", "year_built"],
}

#: Range-filter candidates per source: attribute plus a (lower, upper) band
#: inside the catalog's domain, wide enough to keep plenty of matches.
_FILTER_POOLS: Dict[str, List[Tuple[str, float, float]]] = {
    "bluenile": [
        ("carat", 0.4, 3.5),
        ("price", 500.0, 30000.0),
        ("depth", 56.0, 68.0),
    ],
    "zillow": [
        ("price", 80000.0, 900000.0),
        ("squarefeet", 600.0, 4200.0),
        ("year_built", 1950.0, 2015.0),
    ],
}

_WEIGHT_GRID = (-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0)


def zipf_weights(count: int, exponent: float) -> List[float]:
    """Normalized Zipf probabilities for ranks ``1..count``."""
    if count <= 0:
        raise ValueError("count must be positive")
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [value / total for value in raw]


class ZipfSampler:
    """Seeded sampler over ``count`` ranks with Zipf(``exponent``) mass."""

    def __init__(self, count: int, exponent: float, seed: int) -> None:
        self._cumulative: List[float] = []
        running = 0.0
        for weight in zipf_weights(count, exponent):
            running += weight
            self._cumulative.append(running)
        self._rng = random.Random(seed)

    def draw(self) -> int:
        """Draw one rank index (0-based; 0 is the most popular)."""
        point = self._rng.random()
        for index, bound in enumerate(self._cumulative):
            if point <= bound:
                return index
        return len(self._cumulative) - 1


@dataclass(frozen=True)
class QueryTemplate:
    """One distinct query of the popularity mix (a feed-cacheable request)."""

    source: str
    sliders: Mapping[str, float]
    filters: Optional[Mapping[str, object]]
    page_size: int

    def submit_payload(self, session_id: str) -> Dict[str, object]:
        """JSON body for ``POST /qr2/query``."""
        payload: Dict[str, object] = {
            "session_id": session_id,
            "source": self.source,
            "sliders": dict(self.sliders),
            "page_size": self.page_size,
        }
        if self.filters is not None:
            payload["filters"] = self.filters
        return payload


@dataclass(frozen=True)
class SessionScript:
    """One simulated user: arrival offset, query, and paging depth."""

    session_key: str
    arrival_offset: float
    template: QueryTemplate
    next_pages: int


@dataclass(frozen=True)
class LoadTrace:
    """A full workload: session scripts ordered by arrival."""

    scripts: Tuple[SessionScript, ...]
    distinct_queries: int
    zipf_exponent: float
    arrival_window_seconds: float

    @property
    def total_requests(self) -> int:
        """Requests the trace will issue (session create + submit + N nexts
        per session)."""
        return sum(2 + script.next_pages for script in self.scripts)

    def with_arrival_window(self, seconds: float) -> "LoadTrace":
        """Copy of this trace with arrivals rescaled into ``seconds``."""
        longest = max((s.arrival_offset for s in self.scripts), default=0.0)
        scale = (seconds / longest) if longest > 0 else 0.0
        scripts = tuple(
            SessionScript(
                session_key=s.session_key,
                arrival_offset=s.arrival_offset * scale,
                template=s.template,
                next_pages=s.next_pages,
            )
            for s in self.scripts
        )
        return LoadTrace(
            scripts=scripts,
            distinct_queries=self.distinct_queries,
            zipf_exponent=self.zipf_exponent,
            arrival_window_seconds=seconds,
        )


@dataclass(frozen=True)
class ZipfWorkloadConfig:
    """Shape of the generated workload."""

    sources: Tuple[str, ...] = ("bluenile", "zillow")
    distinct_queries: int = 24
    sessions: int = 64
    pages_per_session: int = 2
    page_size: int = 5
    zipf_exponent: float = 1.1
    filter_probability: float = 0.35
    arrival_window_seconds: float = 0.0
    seed: int = 2026


def build_query_templates(config: ZipfWorkloadConfig) -> List[QueryTemplate]:
    """Deterministically generate the distinct queries of the popularity mix."""
    rng = random.Random(config.seed)
    templates: List[QueryTemplate] = []
    for index in range(config.distinct_queries):
        source = config.sources[index % len(config.sources)]
        pool = _SLIDER_POOLS[source]
        count = rng.randint(1, min(3, len(pool)))
        attributes = rng.sample(pool, count)
        sliders = {name: rng.choice(_WEIGHT_GRID) for name in attributes}
        filters: Optional[Dict[str, object]] = None
        if rng.random() < config.filter_probability:
            attribute, lower, upper = rng.choice(_FILTER_POOLS[source])
            span = upper - lower
            low = lower + rng.uniform(0.0, 0.3) * span
            high = upper - rng.uniform(0.0, 0.3) * span
            filters = {"ranges": {attribute: (round(low, 2), round(high, 2))}}
        templates.append(
            QueryTemplate(
                source=source,
                sliders=sliders,
                filters=filters,
                page_size=config.page_size,
            )
        )
    return templates


def build_zipf_trace(config: Optional[ZipfWorkloadConfig] = None) -> LoadTrace:
    """Build the full session trace: Zipf-assigned templates, seeded arrivals."""
    config = config or ZipfWorkloadConfig()
    templates = build_query_templates(config)
    sampler = ZipfSampler(len(templates), config.zipf_exponent, config.seed + 1)
    arrival_rng = random.Random(config.seed + 2)
    offsets = sorted(
        arrival_rng.uniform(0.0, config.arrival_window_seconds)
        if config.arrival_window_seconds > 0
        else 0.0
        for _ in range(config.sessions)
    )
    scripts = tuple(
        SessionScript(
            session_key=f"user-{index:05d}",
            arrival_offset=offsets[index],
            template=templates[sampler.draw()],
            next_pages=config.pages_per_session,
        )
        for index in range(config.sessions)
    )
    return LoadTrace(
        scripts=scripts,
        distinct_queries=len(templates),
        zipf_exponent=config.zipf_exponent,
        arrival_window_seconds=config.arrival_window_seconds,
    )


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #
@dataclass
class LoadResult:
    """Outcome of one trace execution (sequential or open-loop)."""

    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    status_counts: Dict[int, int] = field(default_factory=dict)
    rejections: int = 0
    aborted_requests: int = 0
    #: (session_key, page_number) -> canonical page JSON.
    pages: Dict[Tuple[str, int], str] = field(default_factory=dict)

    def record(self, status: int, latency: float) -> None:
        """Track one completed request."""
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        self.latencies.append(latency)
        if status == 429:
            self.rejections += 1

    @property
    def completed_requests(self) -> int:
        """Requests that produced a 2xx response."""
        return sum(
            count for status, count in self.status_counts.items() if 200 <= status < 300
        )

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed_requests / self.wall_seconds

    @property
    def rejection_rate(self) -> float:
        """Fraction of issued requests rejected with 429."""
        issued = len(self.latencies)
        return (self.rejections / issued) if issued else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99/mean/max over the recorded request latencies."""
        if not self.latencies:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
        ordered = sorted(self.latencies)
        return {
            "p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "p99": percentile(ordered, 99.0),
            "mean": sum(ordered) / len(ordered),
            "max": ordered[-1],
        }

    def pages_signature(self) -> str:
        """Canonical JSON of every served page, for byte-identity gates."""
        ordered = {f"{key[0]}#{key[1]}": value for key, value in sorted(self.pages.items())}
        return json.dumps(ordered, sort_keys=True)

    def report(self) -> Dict[str, object]:
        """Headline numbers for benchmark records and examples."""
        payload: Dict[str, object] = {
            "wall_seconds": round(self.wall_seconds, 4),
            "requests_issued": len(self.latencies),
            "requests_completed": self.completed_requests,
            "rejections": self.rejections,
            "rejection_rate": round(self.rejection_rate, 4),
            "aborted_requests": self.aborted_requests,
            "throughput_rps": round(self.throughput_rps, 2),
            "status_counts": {str(k): v for k, v in sorted(self.status_counts.items())},
        }
        payload.update(
            {name: round(value, 4) for name, value in self.latency_percentiles().items()}
        )
        return payload


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    position = (q / 100.0) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return float(ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction)


def _canonical_page(payload: Mapping[str, object]) -> str:
    """The byte-identity view of one served page: rows and paging state only
    (statistics legitimately vary with cache/feed interleaving)."""
    return json.dumps(
        {
            "page": payload.get("page"),
            "page_size": payload.get("page_size"),
            "source": payload.get("source"),
            "rows": payload.get("rows"),
            "exhausted": payload.get("exhausted"),
        },
        sort_keys=True,
    )


def _run_session(application, script: SessionScript, result: LoadResult, lock: threading.Lock) -> None:
    """Issue one session's requests in order, recording into ``result``."""
    requests_planned = 1 + script.next_pages

    def send(request: HttpRequest) -> Optional[HttpResponse]:
        started = time.perf_counter()
        response = application.handle(request)
        elapsed = time.perf_counter() - started
        with lock:
            result.record(response.status, elapsed)
        return response

    created = send(HttpRequest.post_json("/qr2/sessions", {}))
    if created is None or not created.ok:
        with lock:
            result.aborted_requests += requests_planned
        return
    session_id = created.json()["session_id"]  # type: ignore[index]

    submit = send(
        HttpRequest.post_json(
            "/qr2/query", script.template.submit_payload(session_id)
        )
    )
    issued = 1
    if submit is not None and submit.ok:
        payload = submit.json()
        with lock:
            result.pages[(script.session_key, 1)] = _canonical_page(payload)  # type: ignore[arg-type]
    else:
        with lock:
            result.aborted_requests += requests_planned - issued
        return

    for page in range(script.next_pages):
        response = send(
            HttpRequest.post_json("/qr2/next", {"session_id": session_id})
        )
        issued += 1
        if response is None or not response.ok:
            with lock:
                result.aborted_requests += requests_planned - issued
            return
        payload = response.json()
        with lock:
            result.pages[(script.session_key, page + 2)] = _canonical_page(payload)  # type: ignore[arg-type]


def replay_sequential(application, trace: LoadTrace) -> LoadResult:
    """Execute the trace one request at a time (the serialized baseline)."""
    result = LoadResult()
    lock = threading.Lock()
    started = time.perf_counter()
    for script in trace.scripts:
        _run_session(application, script, result, lock)
    result.wall_seconds = time.perf_counter() - started
    return result


def run_open_loop(application, trace: LoadTrace) -> LoadResult:
    """Execute the trace open-loop: one thread per session, released at that
    session's scheduled arrival regardless of how the service is keeping up."""
    result = LoadResult()
    lock = threading.Lock()
    start_barrier = threading.Barrier(len(trace.scripts) + 1)
    t0_holder: List[float] = []

    def runner(script: SessionScript) -> None:
        start_barrier.wait()
        delay = t0_holder[0] + script.arrival_offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        _run_session(application, script, result, lock)

    threads = [
        threading.Thread(target=runner, args=(script,), daemon=True)
        for script in trace.scripts
    ]
    for thread in threads:
        thread.start()
    t0_holder.append(time.perf_counter())
    start_barrier.wait()
    for thread in threads:
        thread.join()
    result.wall_seconds = time.perf_counter() - t0_holder[0]
    return result
