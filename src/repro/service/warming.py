"""Popularity-driven feed warming.

A catalog delta (:meth:`~repro.service.app.QR2Service.apply_delta`) retires
exactly the feeds and cache entries the change could have perturbed — but the
*retired* head of the popularity distribution then pays leader costs again on
its next request.  This module closes that gap: a :class:`FeedWarmer`
replays the most popular request specifications through the normal service
submit path, so the retired feeds are re-led and the result cache re-filled
*before* user traffic asks for them.

Popularity comes from two places, mirroring the QR2 UI:

* the source's curated popular-function suggestions
  (:mod:`repro.service.popular`) — the menu the ranking section offers;
* the :class:`PopularityTracker`, which observes every successful
  ``submit_query`` and keeps per-specification hit counts, so the warmer
  follows the workload actually being served (the head of the Zipf
  distribution under the load harness).

Warming runs through throwaway sessions and the public service API, so a
warmed request exercises the same feed-attach and cache-store paths a user
request would — nothing is special-cased.  Nothing runs a pass in the
background: a caller invokes :meth:`FeedWarmer.warm_once` (for example right
after :meth:`~repro.service.app.QR2Service.apply_delta`).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.service.popular import popular_functions
from repro.webdb.counters import Counters

#: How many of the most popular observed request specifications each
#: warming pass replays, on top of the source's curated popular sliders.
TOP_REQUESTS = 8


def _canonical_key(spec: Mapping[str, object]) -> str:
    """Stable identity of a request specification (order-insensitive)."""
    return json.dumps(spec, sort_keys=True, default=str)


@dataclass
class WarmerCounters(Counters):
    """Warming passes completed, and the specifications and pages they
    replayed or skipped."""

    runs: int = 0
    warmed_requests: int = 0
    warmed_pages: int = 0
    skipped: int = 0


@dataclass
class TrackerCounters(Counters):
    """Request specifications a :class:`PopularityTracker` observed."""

    observations: int = 0


class PopularityTracker:
    """Observed request-specification popularity (thread-safe).

    Every successful ``submit_query`` records its *(source, filters,
    ranking, algorithm)* specification here; :meth:`top` returns the most
    frequently observed ones.  Bounded: when more than ``max_specs``
    distinct specifications have been seen, the least popular is evicted —
    the tracker deliberately remembers the head of the distribution, which
    is exactly the part worth warming.
    """

    def __init__(self, max_specs: int = 256) -> None:
        if max_specs <= 0:
            raise ValueError("max_specs must be positive")
        self._max_specs = max_specs
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._specs: Dict[str, Dict[str, object]] = {}
        self._observations = TrackerCounters()

    def record(
        self,
        source: str,
        filters: Optional[Mapping[str, object]],
        sliders: Optional[Mapping[str, float]],
        ranking: Optional[Mapping[str, object]],
        algorithm: str,
    ) -> None:
        """Record one observed request specification."""
        spec: Dict[str, object] = {
            "source": source,
            "filters": dict(filters) if filters else {},
            "sliders": dict(sliders) if sliders is not None else None,
            "ranking": dict(ranking) if ranking is not None else None,
            "algorithm": algorithm,
        }
        key = _canonical_key(spec)
        self._observations.record("observations")
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self._specs[key] = spec
            if len(self._counts) > self._max_specs:
                coldest = min(
                    (k for k in self._counts if k != key),
                    key=lambda k: self._counts[k],
                )
                del self._counts[coldest]
                del self._specs[coldest]

    def top(
        self, count: int, source: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """The ``count`` most popular specifications (optionally one source's),
        most popular first."""
        with self._lock:
            keys = sorted(self._counts, key=lambda k: -self._counts[k])
            specs = [self._specs[key] for key in keys]
        if source is not None:
            specs = [spec for spec in specs if spec["source"] == source]
        return [dict(spec) for spec in specs[: max(0, count)]]

    def snapshot(self) -> Dict[str, int]:
        """Tracker counters for the statistics panel."""
        with self._lock:
            tracked = len(self._counts)
        return {**self._observations.snapshot(), "tracked_specs": tracked}


class FeedWarmer:
    """Replays popular requests so retired feeds re-lead before user traffic.

    ``service`` is a :class:`~repro.service.app.QR2Service`; the warmer only
    uses its public API (``create_session`` / ``submit_query`` /
    ``get_next_page`` / ``close_session``), so every warmed page flows
    through the same shared-feed and result-cache machinery a user request
    would.  A specification that fails validation (stale tracker entry, a
    curated suggestion referencing an attribute a custom schema lacks) is
    skipped and counted, never fatal.
    """

    def __init__(
        self,
        service,
        tracker: Optional[PopularityTracker] = None,
        pages: int = 2,
    ) -> None:
        if pages <= 0:
            raise ValueError("pages must be positive")
        self._service = service
        self._tracker = tracker
        self._pages = pages
        self._counters = WarmerCounters()

    @property
    def tracker(self) -> Optional[PopularityTracker]:
        """The popularity tracker feeding observed specifications."""
        return self._tracker

    def _candidate_specs(
        self, source_names: Sequence[str]
    ) -> List[Dict[str, object]]:
        """Curated suggestions first, then observed head, deduplicated."""
        specs: List[Dict[str, object]] = []
        seen: set = set()
        for name in source_names:
            for function in popular_functions(name):
                spec = {
                    "source": name,
                    "filters": {},
                    "sliders": dict(function.sliders),
                    "ranking": None,
                    "algorithm": "rerank",
                }
                key = _canonical_key(spec)
                if key not in seen:
                    seen.add(key)
                    specs.append(spec)
        if self._tracker is not None:
            for spec in self._tracker.top(TOP_REQUESTS):
                if spec["source"] not in source_names:
                    continue
                key = _canonical_key(spec)
                if key not in seen:
                    seen.add(key)
                    specs.append(spec)
        return specs

    def warm_once(
        self, source_names: Optional[Sequence[str]] = None
    ) -> Dict[str, int]:
        """One warming pass; returns this pass's counters.

        Each candidate specification is replayed on a throwaway session for
        the configured number of pages: the first page re-leads (or
        replays) the shared feed, further pages extend its verified
        prefix.  Sessions are closed afterwards so warming leaves no
        session-table residue behind.
        """
        names = list(
            source_names
            if source_names is not None
            else self._service.registry.names()
        )
        warmed_requests = 0
        warmed_pages = 0
        skipped = 0
        for spec in self._candidate_specs(names):
            session_id = self._service.create_session()
            try:
                self._service.submit_query(
                    session_id,
                    spec["source"],
                    filters=spec["filters"] or None,
                    sliders=spec["sliders"],
                    ranking=spec["ranking"],
                    algorithm=str(spec["algorithm"]),
                )
                warmed_pages += 1
                for _ in range(self._pages - 1):
                    page = self._service.get_next_page(session_id)
                    warmed_pages += 1
                    if page["exhausted"]:
                        break
                warmed_requests += 1
            except Exception:
                skipped += 1
            finally:
                self._service.close_session(session_id)
        self._counters.add(
            runs=1,
            warmed_requests=warmed_requests,
            warmed_pages=warmed_pages,
            skipped=skipped,
        )
        return {
            "warmed_requests": warmed_requests,
            "warmed_pages": warmed_pages,
            "skipped": skipped,
        }

    def snapshot(self) -> Dict[str, object]:
        """Warmer counters for the statistics panel."""
        payload = self._counters.snapshot()
        if self._tracker is not None:
            payload["popularity"] = self._tracker.snapshot()
        return payload
