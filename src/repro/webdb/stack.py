"""The one way a source is stacked.

QR2's only seam to a web database is its public top-k interface.  Everything
the service layers around that seam — scheduled faults, retries and the
circuit breaker, per-source query statistics — is composed here, once, when
the source is built::

    database -> FaultInjector -> SourceGuard -> InterfaceStatistics

:class:`SourceStack` is that composition behind ``settle_many`` (``search``
and ``search_many`` raise the first error of their batch).  An unsharded
source is one stack; a :class:`~repro.webdb.federation.FederatedInterface`
holds one per shard.  The stages are plain attributes — ``.database``,
``.injector``, ``.guard``, ``.statistics`` — so nothing ever has to hunt for
them.  A stack is only a top-k interface: site operations (``apply_delta``,
``has_key``, ``true_ranking``, ...) are called on the site itself.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.dataset.schema import Schema
from repro.webdb.faults import CLEAN, PASSING, FaultInjector, FaultPlan, Slot, delayed
from repro.webdb.interface import (
    InterfaceStatistics,
    SearchResult,
    Settlement,
    TopKInterface,
    answers,
)
from repro.webdb.query import SearchQuery
from repro.webdb.resilience import (
    CircuitBreaker,
    ResilienceStatistics,
    RetryPolicy,
    SourceGuard,
    guards_snapshot,
)


class SourceStack(TopKInterface):
    """One database behind its fault injector, guard and query statistics.

    Parameters
    ----------
    database:
        The source's top-k interface (a :class:`HiddenWebDatabase`, a remote
        adapter, ...).
    fault_plan:
        Deterministic fault schedule; ``None`` builds no injector.
    resilience_statistics:
        Counters the guard records into; a federation passes one shared
        object to all of its shards' stacks.
    clock:
        The breaker's recovery clock (tests drive recovery without sleeping).
    name:
        Guard / breaker name; defaults to the database's ``name``.

    The guard runs the default :class:`RetryPolicy` and
    :class:`CircuitBreaker`, which are inert against a reliable source.
    Cache hits and stored shard parts are resolved *above* the stack, by the
    query engine's cache probe, so the guard only ever sees real round trips.
    """

    def __init__(
        self,
        database: TopKInterface,
        fault_plan: Optional[FaultPlan] = None,
        resilience_statistics: Optional[ResilienceStatistics] = None,
        clock: Callable[[], float] = time.monotonic,
        name: Optional[str] = None,
    ) -> None:
        self.database = database
        self.name: str = name or getattr(database, "name", "source")
        self.injector: Optional[FaultInjector] = (
            FaultInjector(database, fault_plan) if fault_plan is not None else None
        )
        self.guard = SourceGuard(
            self.name,
            RetryPolicy(),
            CircuitBreaker(clock=clock, name=self.name),
            statistics=resilience_statistics,
        )
        self.statistics = InterfaceStatistics()

    # ------------------------------------------------------------------ #
    # TopKInterface
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        return self.database.schema

    @property
    def system_k(self) -> int:
        return self.database.system_k

    @property
    def key_column(self) -> str:
        return self.database.key_column

    def search(self, query: SearchQuery) -> SearchResult:
        return self.search_many([query])[0]

    def search_many(self, queries: Sequence[SearchQuery]) -> List[SearchResult]:
        return answers(self.settle_many(queries))

    def settle_many(self, queries: Sequence[SearchQuery]) -> List[Settlement]:
        """Issue ``queries`` through the guard, settling each on its own.

        Every query draws its fault slot up front, in batch order.  The ones
        whose slot lets them through go out as one ``database.search_many``
        under one guard admission (a SLOW slot adds its spike to the query's
        round trip); each faulted query gets a guard call of its own, whose
        first attempt raises the drawn fault and whose retries draw fresh
        slots.
        """
        batch = list(queries)
        count = len(batch)
        injector = self.injector
        slots = injector.draw(count) if injector and injector.perturbs else [CLEAN] * count
        settled: List[Settlement] = [None] * count  # type: ignore[list-item]
        passing = [position for position in range(count) if slots[position][0] in PASSING]
        if passing:
            clean = [batch[position] for position in passing]
            supply = partial(self.database.search_many, clean)
            for position, answer in zip(passing, self._guarded(supply, len(clean))):
                if not isinstance(answer, Exception):
                    answer = delayed(answer, slots[position][1])
                settled[position] = answer
        for position in range(count):
            if settled[position] is None:
                attempt = partial(self._attempt, batch[position], [slots[position]])
                settled[position] = self._guarded(attempt)[0]
        for answer in settled:
            if not isinstance(answer, Exception):
                self.statistics.record(answer)
        return settled

    def close(self) -> None:
        self.database.close()

    def queries_issued(self) -> int:
        """Round trips that answered through this stack."""
        return self.statistics.queries

    @property
    def resilience_statistics(self) -> ResilienceStatistics:
        return self.guard.statistics

    def resilience_snapshot(self) -> Dict[str, object]:
        return guards_snapshot(self.guard.statistics, [self.guard])

    # ------------------------------------------------------------------ #
    def _attempt(self, query: SearchQuery, drawn: List[Slot]) -> List[SearchResult]:
        """One attempt of a faulted query: the first raises the fault drawn
        up front, a retry draws a fresh slot."""
        injector = self.injector
        assert injector is not None
        return [injector.apply(drawn.pop(), query) if drawn else injector.search(query)]

    def _guarded(
        self, supply: Callable[[], List[SearchResult]], queries: int = 1
    ) -> List[Settlement]:
        """One guard call for ``queries`` queries; an error settles them all."""
        try:
            return self.guard.call(supply, queries)
        except Exception as error:  # noqa: BLE001 - raised once the batch settles
            return [error] * queries
