"""The one way a source is stacked.

QR2's only seam to a web database is its public top-k interface.  Everything
the service layers around that seam — scheduled faults, retries and the
circuit breaker, per-source query statistics — is composed here, once, when
the source is built::

    database -> FaultInjector -> SourceGuard -> InterfaceStatistics

:class:`SourceStack` is that composition behind ``search`` / ``search_many``
(a ``search`` is a batch of one).  An unsharded source is one stack; a
:class:`~repro.webdb.federation.FederatedInterface` holds one per shard.  The
stages are plain attributes — ``.injector``, ``.guard``, ``.statistics`` — so
nothing ever has to hunt for them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.dataset.schema import Schema
from repro.webdb.faults import FaultInjector, FaultPlan
from repro.webdb.interface import InterfaceStatistics, SearchResult, TopKInterface
from repro.webdb.query import SearchQuery
from repro.webdb.resilience import (
    Deadline,
    ResilienceConfig,
    ResilienceStatistics,
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
    resilience:
        Retry / breaker / deadline policy of the guard (defaults are inert
        against a reliable source).
    resilience_statistics:
        Counters the guard records into; a federation passes one shared
        object to all of its shards' stacks.
    clock:
        The breaker's recovery clock (tests drive recovery without sleeping).
    name:
        Guard / breaker name; defaults to the database's ``name``.

    Cache hits are resolved *above* the stack (query engine, federation), so
    the guard only ever sees real round trips.  Attributes this class does
    not define (``apply_delta``, ``has_key``, ``true_ranking``, ``size``,
    ...) resolve on the database.
    """

    def __init__(
        self,
        database: TopKInterface,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceConfig] = None,
        resilience_statistics: Optional[ResilienceStatistics] = None,
        clock: Callable[[], float] = time.monotonic,
        name: Optional[str] = None,
    ) -> None:
        self.database = database
        self.name: str = name or getattr(database, "name", "source")
        config = resilience or ResilienceConfig()
        self._deadline_seconds = config.deadline_seconds
        self.injector: Optional[FaultInjector] = (
            FaultInjector(database, fault_plan) if fault_plan is not None else None
        )
        self.guard: SourceGuard = SourceGuard.from_config(
            self.name, config, statistics=resilience_statistics, clock=clock
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

    @property
    def supports_batched_search(self) -> bool:
        """The database's own answer, unless faults are being drawn: those
        are scheduled per query, so a perturbing injector forces per-query
        issuance."""
        return self.database.supports_batched_search and not self._perturbed()

    def search(
        self, query: SearchQuery, deadline: Optional[Deadline] = None
    ) -> SearchResult:
        return self.search_many([query], deadline)[0]

    def search_many(
        self, queries: Sequence[SearchQuery], deadline: Optional[Deadline] = None
    ) -> List[SearchResult]:
        """Issue ``queries`` through the guard.

        Without a perturbing injector the whole batch is one guard admission
        and one ``database.search_many`` call.  With one, every query draws
        its own schedule slot and is retried on its own.  ``deadline`` lets a
        scatter share one budget of simulated seconds across its shards;
        otherwise each guard call gets a fresh one from the policy.
        """
        batch = list(queries)
        if self._perturbed():
            injector = self.injector
            results = [
                self.guard.call(
                    lambda query=query: injector.search(query),
                    self._deadline(deadline),
                )
                for query in batch
            ]
        else:
            results = self.guard.call(
                lambda: self.database.search_many(batch), self._deadline(deadline)
            )
        for result in results:
            self.statistics.record(result)
        return results

    def queries_issued(self) -> int:
        """Round trips that answered through this stack."""
        return self.statistics.queries

    @property
    def resilience_statistics(self) -> ResilienceStatistics:
        return self.guard.statistics

    def resilience_snapshot(self) -> Dict[str, object]:
        return guards_snapshot(self.guard.statistics, [self.guard])

    # ------------------------------------------------------------------ #
    def _perturbed(self) -> bool:
        return self.injector is not None and self.injector.perturbs

    def _deadline(self, shared: Optional[Deadline]) -> Deadline:
        return shared if shared is not None else Deadline(self._deadline_seconds)

    def __getattr__(self, name: str):
        # Mutation and ground-truth helpers live on the database.
        if name == "database":  # not yet set: no database to ask
            raise AttributeError(name)
        return getattr(self.database, name)
