"""Central configuration objects for the QR2 reproduction.

Every field here is one that some caller sets: the web database's
``system-k`` (how many results its public interface returns), the simulated
network latency, the shard topology and fault plan, the shared rerank feed
switch and the service's limits.  Values no caller varies are constants
beside the code that reads them (the density threshold is
:data:`~repro.core.dense_index.DENSE_RATIO_THRESHOLD`; the retry / breaker
policy is the default of :class:`~repro.webdb.resilience.RetryPolicy` and
:class:`~repro.webdb.resilience.CircuitBreaker`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.webdb.faults import FaultPlan


@dataclass(frozen=True)
class DatabaseConfig:
    """Configuration of a simulated hidden web database.

    Parameters
    ----------
    system_k:
        Number of tuples the public top-k interface returns per query.  Real
        web databases typically return one "page" of results; the VLDB'16
        paper calls this value *k*.
    latency_seconds:
        Mean simulated round-trip latency per search query.  ``0.0`` disables
        latency simulation entirely (used by the unit tests).
    latency_jitter:
        Fractional jitter applied around ``latency_seconds`` when the latency
        model draws random delays.
    fault_plan:
        Deterministic fault schedule injected into every source (and, with a
        per-shard seed offset, every shard of a federated source) built from
        this configuration; see :class:`~repro.webdb.faults.FaultPlan`.
        ``None`` keeps the sources perfectly reliable, and a no-op plan
        leaves the query path unchanged.
    seed:
        Seed for the database's internal randomness (latency draws).
        Catalog generation and the fault plan take their own seeds.
    shards:
        Number of shards the source's catalog is partitioned across.  The
        default ``1`` keeps the single unsharded :class:`HiddenWebDatabase`;
        any larger value builds a
        :class:`~repro.webdb.federation.FederatedInterface` over that many
        per-shard databases (each with its own latency stream).
    shard_by:
        Partitioning key when ``shards > 1``: ``"rank"`` deals tuples
        round-robin in hidden-rank order (every shard sees the same score
        distribution), while any attribute name splits the catalog into
        contiguous quantile ranges of that attribute (enables shard pruning
        for range-filtered queries).
    latency_sleep:
        Whether the simulated latency actually blocks the calling thread
        instead of merely being accounted for: once per batch, for its
        longest draw (a federation's sequential scatter: once per shard).
        The draws are the same either way.

    :func:`repro.webdb.build.build_source` is the one consumer: it takes this
    object whole.  Copies are made with :func:`dataclasses.replace`.
    """

    system_k: int = 20
    latency_seconds: float = 0.0
    latency_jitter: float = 0.25
    seed: int = 7
    shards: int = 1
    shard_by: str = "rank"
    latency_sleep: bool = False
    fault_plan: Optional[FaultPlan] = None


@dataclass(frozen=True)
class RerankConfig:
    """Configuration of a :class:`~repro.core.reranker.QueryReranker`.

    The Get-Next algorithms and the query engine take no configuration; the
    one choice callers make differently is whether sessions share work.

    Parameters
    ----------
    enable_rerank_feed:
        Global switch for the shared rerank feed: sessions requesting the
        same canonical *(query, ranking, algorithm)* share one materialized
        Get-Next stream — the first session drives the real algorithm (the
        *leader*), later and concurrent sessions replay its verified
        emission prefix at zero external queries and zero algorithm work.
        Turning it off exactly reproduces the unshared per-session
        behaviour (the SC-IDX and SC-BW experiment drivers do).
    """

    enable_rerank_feed: bool = True


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the QR2 web service facade.

    The default registry keeps one in-memory
    :class:`~repro.webdb.cache.QueryResultCache` for *all* sessions and
    sources (namespaced per source), so the query savings compound across
    users; answers do not outlive the process.  ``dense_cache_path`` names
    the one persistent cache, the dense-region index's (re-checked against
    the live source by
    :meth:`~repro.core.reranker.QueryReranker.verify_dense_cache`).

    ``database`` configures the simulated sources the default registry
    builds — notably :attr:`DatabaseConfig.shards`: with ``shards > 1``
    every source becomes a federated, sharded catalog behind a
    :class:`~repro.webdb.federation.FederatedInterface` while the service
    semantics (pages, statistics, caching) stay identical.

    A session idle for longer than ``session_ttl_seconds`` is dropped by
    :meth:`~repro.service.app.QR2Service.create_session`, which sweeps the
    session table at most once per TTL.

    The ``serving_*`` knobs configure the concurrent serving tier
    (:mod:`repro.service.concurrent`):

    ``serving_workers``
        Admitted requests that may run at once, each on the thread that
        carried it (distinct sessions run in parallel; requests for one
        session never interleave).
    ``admission_queue_depth``
        Maximum number of admitted-but-unfinished requests.  A submit beyond
        this depth is rejected immediately with
        :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429) instead
        of queueing unboundedly.
    """

    default_page_size: int = 10
    max_page_size: int = 100
    session_ttl_seconds: float = 3600.0
    dense_cache_path: Optional[str] = None
    database: DatabaseConfig = field(default_factory=DatabaseConfig)
    rerank: RerankConfig = field(default_factory=RerankConfig)
    serving_workers: int = 8
    admission_queue_depth: int = 64
