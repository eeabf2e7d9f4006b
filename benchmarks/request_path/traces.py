"""Workload traces.

A trace is everything the program will be asked: the distinct reranking
queries, the order in which sessions ask them, the warm-up done during
set-up, and the catalog deltas applied between sessions.  It is a pure
function of ``(workload, seed, seconds, quick)``.

The *questions* are a fixed deck, the same for every seed — as TPC-style
benchmarks fix their query templates — and the seed decides what they are
asked of and when: the two catalogs (``replay.build_registry`` generates them
from the seed), the order of sessions, the fault schedule and the delta
bands.  Request cost spans two orders of magnitude between a 1-attribute
ranking and a 3-attribute one over an unlucky pair of attributes, so a deck
redrawn per seed makes a run's numbers depend more on the questions the seed
happened to draw than on the code: six seeds of a redrawn deck spread
``pages_per_s`` over 12-37, ten seeds of the fixed deck over 37-43.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

ZIPF_EXPONENT = 1.1
#: Share of a source's catalog, contiguous by price, one delta reprices.
DELTA_SHARE = 0.005
#: Sources of the default registry, in the order deltas are applied.
SOURCES = ("bluenile", "zillow")

#: The deck: ``(source, sliders, range filter, algorithm)``.  It was drawn once
#: — equal shares of 1-, 2- and 3-attribute rankings over four rankable
#: attributes per source, weights on the slider grid of quarters, a range
#: filter on about four in ten, TA asked of every fourth 2-attribute ranking —
#: and then vetted at 20 000 tuples on four catalogs.  Dropped were candidates
#: whose cold session (5 pages) took over 0.6 s, because one such session
#: outweighs the rest of a round (``price`` against ``carat`` under TA runs
#: for minutes, and 3-attribute TA, not drawn at all, takes 5-30 s), and
#: candidates whose external-query count moved by more than 30 % between
#: catalogs (mostly rankings on ``lot_size``), because asked repeatedly they
#: make a run's bill a property of the catalog the seed drew.  Three TA
#: queries are left.  Any prefix keeps the mix, so ``deck(n)`` is a prefix.
DECK: Tuple[Tuple[str, Dict[str, float], Dict[str, Tuple[float, float]], str], ...] = (
    ("bluenile", {"depth": -1.0, "carat": -0.75, "table": 0.75}, {"price": (4749.47, 26373.2)}, "rerank"),
    ("zillow", {"squarefeet": -0.25, "year_built": -0.5}, {}, "rerank"),
    ("bluenile", {"price": 0.75, "table": -0.75, "carat": -0.75}, {"carat": (0.64, 3.22)}, "rerank"),
    ("zillow", {"squarefeet": -1.0}, {"year_built": (1933.83, 2009.21)}, "rerank"),
    ("bluenile", {"table": 0.25}, {"price": (4594.85, 27892.19)}, "rerank"),
    ("bluenile", {"price": -0.75, "table": 0.5}, {}, "ta"),
    ("zillow", {"year_built": -0.5, "squarefeet": 0.75}, {}, "rerank"),
    ("zillow", {"lot_size": -0.25, "price": 0.75}, {}, "rerank"),
    ("bluenile", {"depth": -0.75, "price": 1.0, "table": -0.25}, {"price": (4345.98, 24732.09)}, "rerank"),
    ("bluenile", {"carat": 0.5, "table": -0.5}, {}, "rerank"),
    ("bluenile", {"table": 0.25, "price": -1.0}, {}, "rerank"),
    ("bluenile", {"table": 0.75, "depth": -1.0, "carat": 1.0}, {}, "rerank"),
    ("bluenile", {"carat": -1.0, "price": -0.75, "depth": 0.5}, {"depth": (56.81, 65.81)}, "rerank"),
    ("zillow", {"price": 0.5}, {"year_built": (1938.84, 1998.21)}, "rerank"),
    ("zillow", {"price": -0.75, "squarefeet": -0.25, "year_built": 0.5}, {}, "rerank"),
    ("bluenile", {"table": -0.5}, {"price": (1435.01, 29153.78)}, "rerank"),
    ("bluenile", {"carat": -0.25, "depth": 0.75, "price": 1.0}, {}, "rerank"),
    ("zillow", {"year_built": 0.75, "lot_size": -0.25}, {"squarefeet": (673.15, 4721.2)}, "ta"),
    ("bluenile", {"price": -0.75, "carat": -0.5}, {}, "rerank"),
    ("zillow", {"lot_size": -0.75, "squarefeet": 0.75}, {"year_built": (1938.22, 2005.52)}, "rerank"),
    ("zillow", {"squarefeet": 0.25}, {}, "rerank"),
    ("bluenile", {"table": -0.25, "depth": 0.25, "carat": -0.75}, {"depth": (56.43, 65.89)}, "rerank"),
    ("bluenile", {"depth": -1.0, "price": -0.75, "table": -1.0}, {}, "rerank"),
    ("zillow", {"year_built": -0.5, "price": -0.25}, {}, "rerank"),
    ("zillow", {"year_built": 0.75, "lot_size": -1.0}, {"price": (108080.25, 1129817.13)}, "rerank"),
    ("bluenile", {"price": 0.5, "carat": 0.75, "depth": 0.5}, {}, "rerank"),
    ("bluenile", {"depth": -0.25, "carat": 0.5, "price": -1.0}, {}, "rerank"),
    ("zillow", {"squarefeet": -0.5, "lot_size": -0.5, "price": -0.5}, {}, "rerank"),
    ("zillow", {"squarefeet": 0.75, "price": -1.0}, {}, "rerank"),
    ("bluenile", {"carat": -0.25, "price": -0.25}, {}, "ta"),
    ("zillow", {"price": -1.0, "year_built": -0.5}, {}, "rerank"),
    ("bluenile", {"table": -1.0}, {}, "rerank"),
    ("zillow", {"price": -0.25, "squarefeet": -0.75, "year_built": 1.0}, {"squarefeet": (943.56, 4343.65)}, "rerank"),
    ("bluenile", {"depth": -0.75, "price": 1.0, "carat": 1.0}, {}, "rerank"),
    ("zillow", {"price": 0.75}, {"squarefeet": (1024.68, 4187.41)}, "rerank"),
    ("bluenile", {"price": -1.0, "carat": 0.25, "depth": 0.25}, {}, "rerank"),
    ("zillow", {"lot_size": -1.0}, {"squarefeet": (735.44, 4169.61)}, "rerank"),
    ("bluenile", {"depth": -0.5, "carat": 0.25, "price": 1.0}, {"price": (2307.19, 28584.36)}, "rerank"),
    ("bluenile", {"carat": 0.25}, {"carat": (0.38, 2.81)}, "rerank"),
    ("bluenile", {"depth": 0.25, "price": 0.5}, {"price": (4377.61, 25508.3)}, "rerank"),
    ("bluenile", {"price": -0.75}, {}, "rerank"),
    ("bluenile", {"carat": -0.75, "price": 0.25, "table": 0.25}, {}, "rerank"),
    ("zillow", {"squarefeet": -0.75}, {}, "rerank"),
    ("zillow", {"year_built": -0.25}, {"year_built": (1939.74, 1999.1)}, "rerank"),
    ("zillow", {"price": 0.75, "year_built": -0.5}, {}, "rerank"),
    ("zillow", {"squarefeet": 0.25, "price": -1.0, "lot_size": -0.75}, {}, "rerank"),
    ("zillow", {"lot_size": -0.25}, {"squarefeet": (786.16, 4169.0)}, "rerank"),
    ("zillow", {"price": 0.5, "year_built": -0.25}, {"year_built": (1940.8, 2014.5)}, "rerank"),
    ("bluenile", {"depth": 0.25, "table": 0.25, "carat": 0.25}, {"price": (2685.76, 22830.5)}, "rerank"),
    ("bluenile", {"depth": 0.5, "price": -0.75}, {}, "rerank"),
    ("zillow", {"price": 0.25}, {}, "rerank"),
    ("bluenile", {"carat": -0.75}, {}, "rerank"),
    ("bluenile", {"table": -0.75, "depth": -0.25, "carat": 0.5}, {}, "rerank"),
    ("zillow", {"price": 0.75, "lot_size": 0.25, "squarefeet": 0.75}, {"squarefeet": (762.45, 4014.53)}, "rerank"),
    ("bluenile", {"table": 0.75, "depth": 0.25}, {"price": (1001.31, 25838.7)}, "rerank"),
    ("bluenile", {"price": -0.25, "depth": -0.5, "carat": -0.5}, {}, "rerank"),
    ("zillow", {"squarefeet": -0.75}, {"year_built": (1937.89, 1996.43)}, "rerank"),
    ("zillow", {"lot_size": 0.25, "squarefeet": -1.0}, {"squarefeet": (786.29, 4481.12)}, "rerank"),
    ("zillow", {"year_built": -0.5, "price": -0.5}, {}, "rerank"),
    ("bluenile", {"price": 0.25}, {}, "rerank"),
    ("bluenile", {"price": 1.0}, {"depth": (57.34, 68.92)}, "rerank"),
    ("zillow", {"squarefeet": -0.75}, {"year_built": (1941.45, 2016.29)}, "rerank"),
    ("zillow", {"lot_size": -0.25, "price": -0.75, "squarefeet": 0.5}, {"squarefeet": (688.41, 4854.76)}, "rerank"),
    ("zillow", {"year_built": 1.0, "price": 0.25, "lot_size": 0.25}, {}, "rerank"),
    ("bluenile", {"price": -0.5, "table": -0.75}, {"depth": (57.24, 68.77)}, "rerank"),
    ("zillow", {"squarefeet": 0.25}, {"squarefeet": (1162.43, 4738.86)}, "rerank"),
    ("bluenile", {"depth": -0.5, "table": 0.75, "carat": 1.0}, {"depth": (56.57, 66.33)}, "rerank"),
    ("bluenile", {"price": 0.75, "carat": -0.75}, {}, "rerank"),
    ("bluenile", {"price": -1.0}, {"price": (1645.83, 25381.66)}, "rerank"),
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload.  ``sessions_per_second`` sizes the trace from
    the run length asked for (``--seconds``): it was calibrated once, at the
    commit that introduced the benchmark, so that the timed replay lasts
    about that long on the 2-core sandbox.  It is *not* re-derived at run
    time — a fixed amount of work keeps the external-query counters a pure
    function of the seed, and a faster program simply finishes sooner."""

    name: str
    why: str
    stream: str  # workloads of one stream replay the same sessions
    clients: int
    next_pages: int
    sessions_per_second: float
    distinct_queries: Optional[int] = None  # None: every session its own query
    warm_pages: int = 0  # pages each query is led during set-up
    max_attributes: int = 3  # of a ranking; below 3 also leaves TA out
    shards: int = 1
    faulty: bool = False
    delta_every: int = 0  # a delta per source before every N-th session


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="cold_lead",
            stream="lead",
            why="every session leads a distinct query 50 rows deep: algorithms, "
            "session cache, scoring, containment and the engine do the work",
            clients=1,
            next_pages=4,
            sessions_per_second=9.0,
        ),
        WorkloadSpec(
            name="warm_follow",
            stream="follow",
            why="2 clients replay 16 pre-led feeds, zero external queries: wire, "
            "tier, rendering and the statistics panel do the work; engine bypassed",
            clients=2,
            next_pages=3,
            sessions_per_second=75.0,
            distinct_queries=16,
            warm_pages=4,
            # Followers never run an algorithm: cheap rankings keep set-up short.
            max_attributes=2,
        ),
        WorkloadSpec(
            name="shard_faulty",
            stream="lead",
            why="the cold_lead trace over 4 rank-shards with seeded transient and "
            "slow faults: scatter/merge, guards and retries are the extra work",
            clients=1,
            next_pages=4,
            sessions_per_second=5.5,
            shards=4,
            faulty=True,
        ),
        WorkloadSpec(
            name="churn_mix",
            stream="churn",
            why="Zipf sessions over 48 queries with a 0.5% repricing delta per "
            "source before every 10th session: invalidation beside reads",
            clients=1,
            next_pages=3,
            sessions_per_second=12.5,
            distinct_queries=48,
            delta_every=10,
        ),
    )
}

#: Rounds per invocation; ``--seconds`` is shared between them, so a round's
#: trace is sized for ``seconds / ROUNDS`` whatever ``--rounds`` says.
ROUNDS = 3
DEFAULT_SECONDS = 12.0

#: ``--quick``: a smoke-sized trace (oracle still enforced).
QUICK_SESSIONS = 20
QUICK_CATALOG = 2000
FULL_CATALOG = 20000


@dataclass(frozen=True)
class Query:
    """One reranking request body (without the session id)."""

    source: str
    sliders: Dict[str, float]
    ranges: Dict[str, Tuple[float, float]]
    algorithm: str

    def payload(self) -> Dict[str, object]:
        """The JSON body of ``POST /qr2/query``, less the session id."""
        body: Dict[str, object] = {
            "source": self.source,
            "sliders": self.sliders,
            "algorithm": self.algorithm,
        }
        if self.ranges:
            body["filters"] = {"ranges": {k: list(v) for k, v in self.ranges.items()}}
        return body

    def identity(self) -> Tuple:
        """Canonical identity: two queries with equal identity share a feed
        (a 1D ranking is identified by attribute and direction only)."""
        sliders = tuple(sorted(self.sliders.items()))
        if len(sliders) == 1:
            sliders = ((sliders[0][0], sliders[0][1] > 0),)
        return (self.source, sliders, tuple(sorted(self.ranges.items())), self.algorithm)


@dataclass(frozen=True)
class Delta:
    """A seeded repricing: the ``share`` of the source's catalog starting at
    quantile ``start`` of the price order has its price scaled by ``factor``."""

    source: str
    start: float
    share: float
    factor: float


@dataclass
class Trace:
    """The generated inputs of one round."""

    workload: str
    seed: int
    catalog_size: int
    queries: List[Query]
    sessions: List[int]  # query index per session, in issue order
    next_pages: int
    clients: int
    warm_pages: int = 0
    shards: int = 1
    faulty: bool = False
    #: deltas applied before session ``i`` (churn_mix), keyed by session index
    deltas: Dict[int, List[Delta]] = field(default_factory=dict)

    @property
    def follow_only(self) -> bool:
        """Every timed page was led during set-up: the timed phase must not
        issue a single external query."""
        return self.warm_pages >= 1 + self.next_pages

    def fingerprint(self) -> str:
        """A stable rendering, for equality checks in tests."""
        return json.dumps(
            {
                "seed": self.seed,
                "queries": [q.payload() for q in self.queries],
                "sessions": self.sessions,
                "deltas": {
                    str(k): [(d.source, d.start, d.factor) for d in v]
                    for k, v in self.deltas.items()
                },
            },
            sort_keys=True,
        )


def deck(count: int, max_attributes: int = 3) -> List[Query]:
    """The first ``count`` queries of the deck; with ``max_attributes`` below
    3, the first that rank by no more attributes and run no TA."""
    queries = [
        Query(*entry)
        for entry in DECK
        if max_attributes >= 3 or (len(entry[1]) <= max_attributes and entry[3] != "ta")
    ][:count]
    if len(queries) < count:
        raise ValueError(f"the deck holds {len(queries)} such queries, {count} asked for")
    return queries


def zipf_sessions(rng: random.Random, queries: int, sessions: int, block: int) -> List[int]:
    """``sessions`` query indexes in Zipf(1.1) proportions over ranks
    ``1..queries``, in seeded order.

    The *counts* are the expected ones (largest remainders), not a draw, and
    they are dealt evenly over blocks of ``block`` sessions — the stretch
    between two deltas, each of which retires the live feeds.  How often each
    query is asked, and so how many sessions of a block lead and how many
    follow, is the same for every seed; the seed decides the order of the
    blocks and the order within each."""
    weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, queries + 1)]
    shares = [sessions * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(queries), key=lambda index: counts[index] - shares[index])
    for index in by_remainder[: sessions - sum(counts)]:
        counts[index] += 1
    asked = [index for index, count in enumerate(counts) for _ in range(count)]
    blocks = [asked[start :: -(-sessions // block)] for start in range(-(-sessions // block))]
    rng.shuffle(blocks)
    for members in blocks:
        rng.shuffle(members)
    return [index for members in blocks for index in members]


def build_trace(workload: str, seed: int, seconds: float, quick: bool = False) -> Trace:
    """The trace one round of ``workload`` replays for ``seed``, sized for a
    timed replay of about ``seconds / ROUNDS`` (or the fixed smoke size)."""
    spec = WORKLOADS[workload]
    sessions = (
        QUICK_SESSIONS if quick else max(8, round(spec.sessions_per_second * seconds / ROUNDS))
    )
    if spec.distinct_queries is None:
        # Every session leads its own query: the deck caps the round.
        sessions = min(sessions, len(DECK))
    rng = random.Random(f"{seed}:{spec.stream}")
    if spec.distinct_queries is None:
        queries = deck(sessions, spec.max_attributes)
        order = list(range(sessions))
        rng.shuffle(order)
    else:
        queries = deck(spec.distinct_queries, spec.max_attributes)
        order = zipf_sessions(rng, len(queries), sessions, spec.delta_every or sessions)
    trace = Trace(
        workload=workload,
        seed=seed,
        catalog_size=QUICK_CATALOG if quick else FULL_CATALOG,
        queries=queries,
        sessions=order,
        next_pages=spec.next_pages,
        clients=spec.clients,
        warm_pages=spec.warm_pages,
        shards=spec.shards,
        faulty=spec.faulty,
    )
    if spec.delta_every:
        points = list(range(spec.delta_every, sessions, spec.delta_every))
        for source in SOURCES:
            # One band per equal slice of the price order, in seeded order:
            # every seed's deltas sweep the whole catalog.
            slices = list(range(len(points)))
            rng.shuffle(slices)
            for index, slot in zip(points, slices):
                start = (slot + rng.random()) / len(points) * (1.0 - DELTA_SHARE)
                trace.deltas.setdefault(index, []).append(
                    Delta(source, start, DELTA_SHARE, rng.uniform(0.9, 1.1))
                )
    return trace
