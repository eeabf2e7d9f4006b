"""The per-layer trace: timing wrappers installed from the benchmark's own
files around the public entry points of each layer.

Only the traced round of a workload loads this module.  ``Tracer.install``
resolves every target by dotted name and replaces the attribute with a
wrapper; a target that no longer exists is skipped and listed under
``trace.unresolved``, so a refactor of the layers cannot break the benchmark.
No file under ``src/`` is edited; spans inside the program are a later change.

A span is ``(id, target, start, end, parent, request)``.  The parent is the
top of a thread-local stack; the three hops between threads are linked by
identity — the client's request to the handler thread by the connection's
local port, the tier's and the query engine's ``submit`` by wrapping the
callable they are handed.  A layer's *self time* is the duration of its spans
minus the union of their children's intervals.  Three hot functions
(``score``, ``normalize``, ``contains``) are called thousands of times per
page and only counted; ``score`` is also timed on every 32nd call and the
estimate moved from the calling layer to ``functions``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.request_path.stats import percentile

LAYERS = (
    "wire", "tier", "httpapp", "service", "table", "panel", "reranker", "getnext", "feed",
    "algo", "session", "functions", "parallel", "cache", "dense_index", "resilience", "faults",
    "federation", "database", "engine", "delta",
)  # fmt: skip

#: ``(dotted target, layer)``: one span per call.
SPAN_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("benchmarks.request_path.replay.Client.post", "wire"),
    ("repro.service.httpapp._QR2SocketHandler.do_POST", "wire"),
    ("repro.service.concurrent.ConcurrentQR2Application.handle", "tier"),
    ("repro.service.httpapp.QR2HttpApplication.handle", "httpapp"),
    ("repro.service.app.QR2Service.create_session", "service"),
    ("repro.service.app.QR2Service.submit_query", "service"),
    ("repro.service.app.QR2Service.get_next_page", "service"),
    ("repro.service.app.QR2Service.apply_delta", "delta"),
    ("repro.core.reranker.QueryReranker.apply_delta", "delta"),
    ("repro.dataset.table.ColumnTable.from_rows", "table"),
    ("repro.dataset.table.ColumnTable.to_text", "table"),
    ("repro.core.stats.RerankStatistics.snapshot", "panel"),
    ("repro.core.dense_index.DenseRegionIndex.describe", "panel"),
    ("repro.webdb.cache.QueryResultCache.snapshot", "panel"),
    ("repro.core.feed.RerankFeedStore.snapshot", "panel"),
    ("repro.webdb.federation.FederatedInterface.describe", "panel"),
    ("repro.service.warming.FeedWarmer.snapshot", "panel"),
    ("repro.core.reranker.QueryReranker.resilience_snapshot", "panel"),
    ("repro.core.reranker.QueryReranker.rerank", "reranker"),
    ("repro.core.getnext.GetNextStream.next_page", "getnext"),
    ("repro.core.feed.RerankFeedStore.attach", "feed"),
    ("repro.core.feed.RerankFeedStore.invalidate_delta", "feed"),
    ("repro.core.feed.RerankFeed.row_at", "feed"),
    ("repro.core.onedim.OneDimGetNext.next", "algo"),
    ("repro.core.multidim.MultiDimGetNext.next", "algo"),
    ("repro.core.ta.ThresholdAlgorithmGetNext.next", "algo"),
    ("repro.core.session.Session.cached_candidates", "session"),
    ("repro.core.session.Session.remember", "session"),
    ("repro.core.parallel.QueryEngine.search", "parallel"),
    ("repro.core.parallel.QueryEngine.search_group", "parallel"),
    ("repro.webdb.cache.QueryResultCache.fetch", "cache"),
    ("repro.webdb.cache.QueryResultCache.fetch_many", "cache"),
    ("repro.webdb.cache.QueryResultCache.probe", "cache"),
    ("repro.webdb.cache.QueryResultCache.store", "cache"),
    ("repro.webdb.cache.QueryResultCache.invalidate_delta", "cache"),
    ("repro.core.dense_index.DenseRegionIndex.lookup", "dense_index"),
    ("repro.core.dense_index.DenseRegionIndex.lookup_interval", "dense_index"),
    ("repro.core.dense_index.DenseRegionIndex.add_region", "dense_index"),
    ("repro.core.dense_index.DenseRegionIndex.add_interval", "dense_index"),
    ("repro.core.dense_index.DenseRegionIndex.invalidate_delta", "dense_index"),
    ("repro.webdb.resilience.SourceGuard.call", "resilience"),
    ("repro.webdb.faults.FaultInjector.search", "faults"),
    ("repro.webdb.federation.FederatedInterface.search", "federation"),
    ("repro.webdb.federation.FederatedInterface.apply_delta", "federation"),
    ("repro.webdb.database.HiddenWebDatabase.search", "database"),
    ("repro.webdb.database.HiddenWebDatabase.search_many", "database"),
    ("repro.webdb.database.HiddenWebDatabase.apply_delta", "database"),
    ("repro.webdb.engine.IndexedColumnarEngine.execute", "engine"),
    ("repro.webdb.engine.IndexedColumnarEngine.execute_many", "engine"),
)

#: Counted, not timed.
SCORE = "repro.core.functions.LinearRankingFunction.score"
NORMALIZE = "repro.core.normalization.MinMaxNormalizer.normalize"
CONTAINS = "repro.webdb.query.SearchQuery.contains"
#: ``score`` is timed on every N-th call.
SCORE_SAMPLE = 32

#: ``submit(fn, ...)`` methods whose callable runs on another thread.
HANDOFFS = (
    "repro.service.concurrent.ConcurrentServingTier.submit",
    "concurrent.futures.ThreadPoolExecutor.submit",
)
TIER_SUBMIT = HANDOFFS[0]
CLIENT_POST = SPAN_TARGETS[0][0]
HANDLER_POST = SPAN_TARGETS[1][0]

#: What a wrapper notes besides time: ``(args, result) -> number``, summed.
OBSERVED: Dict[str, Callable[[tuple, object], float]] = {
    "repro.core.session.Session.cached_candidates": lambda args, result: args[0].seen_count(),
    "repro.webdb.database.HiddenWebDatabase.search": lambda args, result: 1,
    "repro.webdb.database.HiddenWebDatabase.search_many": lambda args, result: len(result),  # type: ignore[arg-type]
    "repro.webdb.engine.IndexedColumnarEngine.execute": lambda args, result: len(result[0]),  # type: ignore[index]
    "repro.webdb.engine.IndexedColumnarEngine.execute_many": lambda args, result: sum(
        len(rows) for rows, _ in result  # type: ignore[union-attr]
    ),
}

#: Every per-layer metric the traced run reports: ``(name, unit, better)``.
PER_LAYER_SPEC: List[Tuple[str, str, str]] = [
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.self_ms_per_page", "ms", "lower"),
        (f"{layer}.calls_per_page", "count", "lower"),
    )
] + [
    ("wire.bytes_per_page", "bytes", "lower"),
    ("tier.queue_wait_ms_p50", "ms", "lower"),
    ("tier.max_in_flight", "count", "lower"),
    ("tier.rejected", "count", "lower"),
    ("feed.follower_share", "share", "higher"),
    ("feed.replayed_rows_per_page", "count", "higher"),
    ("feed.leader_advances_per_page", "count", "lower"),
    ("session.rows_scanned_per_call", "count", "lower"),
    ("functions.score_calls_per_page", "count", "lower"),
    ("functions.normalize_calls_per_page", "count", "lower"),
    ("parallel.queries_per_page", "count", "lower"),
    ("parallel.issued_share", "share", "lower"),
    ("parallel.hit_share", "share", "higher"),
    ("parallel.contained_share", "share", "higher"),
    ("parallel.coalesced_share", "share", "higher"),
    ("cache.contains_calls_per_probe", "count", "lower"),
    ("cache.entries_end", "count", "lower"),
    ("cache.stale_serves", "count", "lower"),
    ("dense_index.hit_share", "share", "higher"),
    ("dense_index.regions_end", "count", "lower"),
    ("resilience.retries_per_query", "count", "lower"),
    ("resilience.failed_attempts", "count", "lower"),
    ("resilience.short_circuits", "count", "lower"),
    ("resilience.breaker_opens", "count", "lower"),
    ("faults.injected_per_query", "count", "lower"),
    ("federation.shard_queries_per_scatter", "count", "lower"),
    ("federation.pruned_share", "share", "higher"),
    ("federation.degraded_scatters", "count", "lower"),
    ("database.batch_size_mean", "count", "higher"),
    ("engine.rows_returned_per_query", "count", "lower"),
    ("delta.cache_entries_retired_per_delta", "count", "lower"),
    ("delta.feeds_retired_per_delta", "count", "lower"),
    ("delta.regions_retired_per_delta", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.unresolved", "count", "lower"),
]


def resolve(dotted: str) -> Optional[Tuple[object, str]]:
    """``(owner, attribute)`` of a dotted target, or ``None`` when any part
    of the path no longer exists."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


def _rebind(owner: object, name: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.name`` by ``wrap(original)``, keeping a classmethod or
    staticmethod what it was."""
    raw = vars(owner).get(name, getattr(owner, name))
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, name, type(raw)(wrap(raw.__func__)))
    else:
        setattr(owner, name, wrap(raw))


def self_times(spans: List[Tuple[int, int, float, float, int, int]]) -> Dict[int, float]:
    """Self time per span id: its duration minus the union of the intervals
    of its children (clipped to the span)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[span_id] = (end - start) - covered
    return result


class Tracer:
    """Installs the wrappers, holds the spans in memory, reports per layer."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        self.targets: List[Tuple[str, str]] = []  # index -> (dotted, layer)
        self.unresolved: List[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._counters: Dict[str, "itertools.count[int]"] = {}
        self._observed: Dict[str, List[float]] = {}
        self._queue_waits: List[Tuple[float, float]] = []  # (submitted at, waited ms)
        #: score time estimated from the sampled calls, by calling target
        self._sampled: Dict[int, float] = {}
        #: client port -> (span id, request id) of the request it carries
        self._in_flight: Dict[int, Tuple[int, int]] = {}
        self._began = 0.0
        self._baseline: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Thread-local context
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Tuple[int, int]]:
        """This thread's open spans as ``(span id, target index)``."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.request = 0
            return self._local.stack

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _span_wrapper(self, dotted: str, layer: str) -> Callable[[Callable], Callable]:
        index = len(self.targets)
        self.targets.append((dotted, layer))
        observe = OBSERVED.get(dotted)
        observed = self._observed.setdefault(dotted, []) if observe else None
        record = self.spans.append
        ids = self._ids
        clock = time.perf_counter
        is_client = dotted == CLIENT_POST
        is_handler = dotted == HANDLER_POST

        def wrap(function: Callable) -> Callable:
            def traced(*args, **kwargs):
                stack = self._stack()
                local = self._local
                span_id = next(ids)
                parent = stack[-1][0] if stack else 0
                if is_client:
                    local.request = span_id
                elif is_handler:
                    # A fresh handler thread: adopt the client span that
                    # opened this connection.
                    parent, local.request = self._in_flight.get(
                        args[0].client_address[1], (0, 0)
                    )
                stack.append((span_id, index))
                started = clock()
                try:
                    result = function(*args, **kwargs)
                    if observed is not None:
                        observed.append(observe(args, result))  # type: ignore[misc]
                    return result
                finally:
                    ended = clock()
                    stack.pop()
                    record((span_id, index, started, ended, parent, local.request))

            return traced

        return wrap

    def _count_wrapper(self, dotted: str) -> Callable[[Callable], Callable]:
        counter = self._counters.setdefault(dotted, itertools.count())

        def wrap(function: Callable) -> Callable:
            def counted(*args, **kwargs):
                next(counter)
                return function(*args, **kwargs)

            return counted

        return wrap

    def _score_wrapper(self, function: Callable) -> Callable:
        counter = self._counters.setdefault(SCORE, itertools.count())
        clock = time.perf_counter
        sampled = self._sampled

        def scored(*args, **kwargs):
            if next(counter) % SCORE_SAMPLE:
                return function(*args, **kwargs)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                estimate = (clock() - started) * SCORE_SAMPLE
                stack = self._stack()
                caller = stack[-1][1] if stack else -1
                sampled[caller] = sampled.get(caller, 0.0) + estimate

        return scored

    def _handoff_wrapper(self, dotted: str) -> Callable[[Callable], Callable]:
        is_tier = dotted == TIER_SUBMIT

        def wrap(submit: Callable) -> Callable:
            def carrying(executor, function, *args, **kwargs):
                stack = self._stack()
                inherited = list(stack[-1:])
                request = self._local.request
                submitted = time.perf_counter()

                def carried(*inner_args, **inner_kwargs):
                    if is_tier:
                        self._queue_waits.append(
                            (submitted, (time.perf_counter() - submitted) * 1000.0)
                        )
                    local = self._local
                    saved = (self._stack(), local.request)
                    local.stack, local.request = list(inherited), request
                    try:
                        return function(*inner_args, **inner_kwargs)
                    finally:
                        local.stack, local.request = saved

                return submit(executor, carried, *args, **kwargs)

            return carrying

        return wrap

    def install(self) -> None:
        """Wrap every target that still exists."""
        plans: List[Tuple[str, Callable[[Callable], Callable]]] = [
            (dotted, self._span_wrapper(dotted, layer)) for dotted, layer in SPAN_TARGETS
        ]
        plans += [(dotted, self._count_wrapper(dotted)) for dotted in (NORMALIZE, CONTAINS)]
        plans.append((SCORE, self._score_wrapper))
        plans += [(dotted, self._handoff_wrapper(dotted)) for dotted in HANDOFFS]
        for dotted, wrap in plans:
            found = resolve(dotted)
            if found is None:
                self.unresolved.append(dotted)
            else:
                _rebind(found[0], found[1], wrap)

    def prepare_client(self, client) -> None:
        """Have ``client`` announce the port each request leaves from."""

        def connected(port: int) -> None:
            stack = self._stack()
            self._in_flight[port] = (stack[-1][0] if stack else 0, self._local.request)

        client.on_connect = connected

    def begin(self) -> None:
        """Start of the timed phase: spans and counts before it are set-up."""
        self._began = time.perf_counter()
        self._baseline = {name: self._count(name) for name in self._counters}
        self._sampled.clear()

    def _count(self, dotted: str) -> int:
        # ``itertools.count`` cannot be read without advancing it; its repr
        # is the documented ``count(n)``.
        return int(repr(self._counters[dotted])[6:-1])

    # ------------------------------------------------------------------ #
    # Report
    # ------------------------------------------------------------------ #
    def finish(self, result: Dict[str, object], service, path: str) -> Dict[str, object]:
        """Per-layer metrics of the timed phase; writes the spans to ``path``."""
        spans = [span for span in self.spans if span[2] >= self._began]
        sessions: List[Dict[str, object]] = result["sessions"]  # type: ignore[assignment]
        pages = sum(status == 200 for session in sessions for status in session["statuses"])  # type: ignore[union-attr]
        counted = {name: self._count(name) - self._baseline.get(name, 0) for name in self._counters}
        metrics = self._layer_times(spans, counted, 1.0 / max(pages, 1))
        metrics.update(self._request_ratios(spans, counted, sessions, 1.0 / max(pages, 1)))
        deltas: List[Dict[str, int]] = result["delta_summaries"]  # type: ignore[assignment]
        for name in ("cache_entries_retired", "feeds_retired", "regions_retired"):
            metrics[f"delta.{name}_per_delta"] = _ratio(sum(d[name] for d in deltas), len(deltas))
        # Whole-run counters the program already keeps, read once, now.  They
        # sit below the surface the benchmark depends on: one that has moved
        # reads null instead of failing the round.
        rerankers = [service.registry.get(name).reranker for name in service.registry.names()]
        for group, read in (
            ("tier", lambda: _tier_counters(result["tier"])),
            ("cache", lambda: _cache_counters(rerankers)),
            ("dense_index", lambda: _dense_index_counters(rerankers)),
            ("resilience", lambda: _resilience_counters(rerankers)),
            ("federation", lambda: _federation_counters(rerankers)),
        ):
            try:
                metrics.update(read())
            except (AttributeError, KeyError, TypeError) as error:
                self.unresolved.append(f"{group} counters ({type(error).__name__}: {error})")
        # Time of the client lanes that no span accounts for: the harness's
        # own bookkeeping between requests.
        roots = sum(end - start for _, _, start, end, parent, _ in spans if not parent)
        lanes = sum(result["client_s"])  # type: ignore[arg-type]
        metrics["trace.unattributed_share"] = 1.0 - _ratio(roots + float(result["probe_s"]), lanes)  # type: ignore[arg-type]
        metrics["trace.unresolved"] = float(len(self.unresolved))
        metrics["unresolved"] = self.unresolved
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": result.get("workload"),
                    "began": self._began,
                    "columns": ["id", "target", "start", "end", "parent", "request"],
                    "targets": [list(target) for target in self.targets],
                    "unresolved": self.unresolved,
                    "spans": spans,
                },
                handle,
                separators=(",", ":"),
            )
        return metrics

    def _layer_times(self, spans, counted: Dict[str, int], per_page: float) -> Dict[str, object]:
        """``<layer>.self_ms_per_page`` and ``<layer>.calls_per_page``."""
        own = self_times(spans)
        self_ms = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for span_id, index, _, _, _, _ in spans:
            layer = self.targets[index][1]
            self_ms[layer] += own[span_id] * 1000.0
            calls[layer] += 1
        # The sampled score time sits inside whichever span called it.
        for caller, seconds in self._sampled.items():
            if caller >= 0:
                self_ms[self.targets[caller][1]] -= seconds * 1000.0
            self_ms["functions"] += seconds * 1000.0
        calls["functions"] = counted.get(SCORE, 0) + counted.get(NORMALIZE, 0)
        # A layer none of whose targets exists any more reports null.
        watched = {layer: [d for d, l in SPAN_TARGETS if l == layer] for layer in LAYERS}
        watched["functions"] = [SCORE, NORMALIZE]
        metrics: Dict[str, object] = {}
        for layer in LAYERS:
            gone = all(dotted in self.unresolved for dotted in watched[layer])
            metrics[f"{layer}.self_ms_per_page"] = None if gone else self_ms[layer] * per_page
            metrics[f"{layer}.calls_per_page"] = None if gone else calls[layer] * per_page
        return metrics

    def _request_ratios(
        self, spans, counted: Dict[str, int], sessions: List[Dict[str, object]], per_page: float
    ) -> Dict[str, object]:
        """What the wrappers counted and what each session's last statistics
        panel says, per page or as shares."""
        panels: List[Dict[str, float]] = [session["panel"] for session in sessions]  # type: ignore[misc]

        def total(name: str) -> float:
            return float(sum(panel[name] for panel in panels))

        def observed(*dotted: str) -> List[float]:
            return [value for name in dotted for value in self._observed.get(name, ())]

        waits = [waited for at, waited in self._queue_waits if at >= self._began]
        scanned = observed("repro.core.session.Session.cached_candidates")
        issued = total("external_queries")
        hits = total("result_cache_hits")
        contained = total("contained_answers")
        coalesced = total("coalesced_queries")
        demand = issued + hits + contained + coalesced
        probes = sum(1 for span in spans if self.targets[span[1]][0].endswith("QueryResultCache.probe"))
        batches = observed(
            "repro.webdb.database.HiddenWebDatabase.search",
            "repro.webdb.database.HiddenWebDatabase.search_many",
        )
        returned = observed(
            "repro.webdb.engine.IndexedColumnarEngine.execute",
            "repro.webdb.engine.IndexedColumnarEngine.execute_many",
        )
        return {
            "wire.bytes_per_page": sum(session["bytes"] for session in sessions) * per_page,  # type: ignore[misc]
            "tier.queue_wait_ms_p50": percentile(waits, 50) or 0.0,
            "feed.follower_share": _ratio(
                sum(1 for panel in panels if not panel["feed_leader_advances"]), len(panels)
            ),
            "feed.replayed_rows_per_page": total("feed_replayed_tuples") * per_page,
            "feed.leader_advances_per_page": total("feed_leader_advances") * per_page,
            "session.rows_scanned_per_call": _ratio(sum(scanned), len(scanned)),
            "functions.score_calls_per_page": counted.get(SCORE, 0) * per_page,
            "functions.normalize_calls_per_page": counted.get(NORMALIZE, 0) * per_page,
            "parallel.queries_per_page": demand * per_page,
            "parallel.issued_share": _ratio(issued, demand),
            "parallel.hit_share": _ratio(hits, demand),
            "parallel.contained_share": _ratio(contained, demand),
            "parallel.coalesced_share": _ratio(coalesced, demand),
            "cache.contains_calls_per_probe": _ratio(counted.get(CONTAINS, 0), probes),
            "database.batch_size_mean": _ratio(sum(batches), len(batches)),
            "engine.rows_returned_per_query": _ratio(sum(returned), sum(batches)),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tier_counters(tier) -> Dict[str, float]:
    return {
        "tier.max_in_flight": float(tier["max_in_flight"]),
        "tier.rejected": float(tier["rejected"]),
    }


def _cache_counters(rerankers) -> Dict[str, float]:
    # Sources share one cache by default: count each cache once.
    caches = {id(r.result_cache): r.result_cache.snapshot() for r in rerankers if r.result_cache}
    return {
        "cache.entries_end": float(sum(cache["entries"] for cache in caches.values())),
        "cache.stale_serves": float(sum(cache["stale_serves"] for cache in caches.values())),
    }


def _dense_index_counters(rerankers) -> Dict[str, float]:
    dense = [reranker.dense_index.describe() for reranker in rerankers]
    return {
        "dense_index.hit_share": _ratio(sum(d["hits"] for d in dense), sum(d["lookups"] for d in dense)),
        "dense_index.regions_end": float(sum(d["regions"] for d in dense)),
    }


def _resilience_counters(rerankers) -> Dict[str, float]:
    guards = [snapshot for snapshot in (r.resilience_snapshot() for r in rerankers) if snapshot]
    retries = sum(guard["retries"] for guard in guards)
    counters = {
        "resilience.retries_per_query": _ratio(retries, sum(g["attempts"] for g in guards) - retries),
        "federation.degraded_scatters": float(sum(g.get("degraded_scatters", 0) for g in guards)),
    }
    for name in ("failed_attempts", "short_circuits", "breaker_opens"):
        counters[f"resilience.{name}"] = float(sum(guard[name] for guard in guards))
    return counters


def _federation_counters(rerankers) -> Dict[str, float]:
    federations = [r.federation for r in rerankers if r.federation is not None]
    injected = seen = 0
    for federation in federations:
        for injector in federation.fault_injectors():
            if injector is not None:
                counts = injector.fault_counts()
                seen += sum(counts.values())
                injected += sum(count for kind, count in counts.items() if kind != "none")
    described = [federation.describe() for federation in federations]
    shard_queries = sum(d["fan_out"]["total"] for d in described)
    pruned = sum(d["pruned_shard_queries"] for d in described)
    return {
        "faults.injected_per_query": _ratio(injected, seen),
        "federation.shard_queries_per_scatter": _ratio(
            shard_queries, sum(d["scatter_queries"] for d in described)
        ),
        "federation.pruned_share": _ratio(pruned, pruned + shard_queries),
    }
