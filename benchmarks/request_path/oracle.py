"""The oracle and the plan: what the program is given and what it must serve.

The parent process keeps a *shadow* of each source's catalog — exported once
through ``interface.true_ranking`` — and applies the trace's deltas to it in
issue order.  From the shadow it materialises the rows each delta upserts
(the program receives plain rows, not a recipe) and computes, for every
session, the score of every position of the prefix that session must serve
under the catalog version in force when it starts.

The expected prefix is ``true_ranking``'s definition — filter, then order by
score — evaluated on the shadow: numpy narrows the catalog to the rows that
can reach the prefix, and the exact ``ranking_from_sliders`` score orders
those.  Without numpy every matching row is scored exactly.

A served session is correct when, before its first degraded page, every row
is the shadow's version of that tuple value for value, matches the filter,
appears once, and scores what the oracle's row at that position scores.
Rows whose scores agree to ``SCORE_TOLERANCE`` are interchangeable: at 20 000
tuples a ranking over 0.1-step attributes has hundreds of exact ties (and
sums that differ in the sixteenth digit), among which ``true_ranking``'s key
order is a convention the algorithms do not promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.service.sliders import ranking_from_sliders
from repro.service.sources import DataSource
from repro.webdb.query import SearchQuery

from benchmarks.request_path import replay
from benchmarks.request_path.traces import Delta, Query, Trace

try:  # numpy only makes the oracle fast; it is never the judge of order
    import numpy
except ImportError:  # pragma: no cover - exercised on numpy-less CI
    numpy = None

PAGE_SIZE = 10
SCORE_TOLERANCE = 1e-9
Row = Dict[str, object]


class ShadowCatalog:
    """The benchmark's own copy of one source's catalog, every version of it."""

    def __init__(self, source: DataSource) -> None:
        self.schema = source.schema
        self.columns: List[str] = list(source.result_columns) or self.schema.columns()
        self.rows: List[Row] = [
            dict(row)
            for row in source.interface.true_ranking(SearchQuery.build(), lambda row: 0.0)
        ]
        key = self.schema.key
        self._position = {row[key]: index for index, row in enumerate(self.rows)}
        self._arrays: Dict[str, "numpy.ndarray"] = {}
        self.version = 0
        #: Superseded tuple versions: key -> [(last version it was current, row)].
        self._superseded: Dict[object, List[Tuple[int, Row]]] = {}

    def _array(self, attribute: str):
        array = self._arrays.get(attribute)
        if array is None:
            array = numpy.array([float(row[attribute]) for row in self.rows])  # type: ignore[arg-type]
            self._arrays[attribute] = array
        return array

    def upsert(self, rows: Sequence[Row]) -> None:
        """Replace existing tuples by key (the trace only reprices) and
        start a new catalog version."""
        key = self.schema.key
        for row in rows:
            index = self._position[row[key]]
            self._superseded.setdefault(row[key], []).append((self.version, self.rows[index]))
            self.rows[index] = dict(row)
            for attribute, array in self._arrays.items():
                array[index] = float(row[attribute])  # type: ignore[arg-type]
        self.version += 1

    def row_at(self, key: object, version: int) -> Row:
        """The tuple ``key`` as it stood in catalog version ``version``."""
        for last_version, row in self._superseded.get(key, ()):
            if version <= last_version:
                return row
        return self.rows[self._position[key]]

    def reprice(self, delta: Delta) -> List[Row]:
        """The rows ``delta`` upserts: the contiguous-by-price band starting
        at quantile ``start``, each price scaled by ``factor``."""
        # Rows sit in key order and both sorts are stable: equal prices
        # keep key order with or without numpy.
        if numpy is None:
            by_price = sorted(range(len(self.rows)), key=lambda index: self.rows[index]["price"])
        else:
            by_price = numpy.argsort(self._array("price"), kind="stable").tolist()
        first = int(delta.start * len(by_price))
        count = max(1, round(delta.share * len(by_price)))
        lower, upper = self.schema.domain_bounds("price")
        return [
            dict(
                self.rows[index],
                price=round(min(max(float(self.rows[index]["price"]) * delta.factor, lower), upper), 2),  # type: ignore[arg-type]
            )
            for index in by_price[first : first + count]
        ]

    def _candidates(self, query: Query, limit: int) -> List[int]:
        """Indexes of every row that can appear in the first ``limit``."""
        if numpy is None:
            return list(range(len(self.rows)))
        mask = numpy.ones(len(self.rows), dtype=bool)
        for attribute, (lower, upper) in query.ranges.items():
            values = self._array(attribute)
            mask &= (values >= lower) & (values <= upper)
        matching = numpy.flatnonzero(mask)
        if len(matching) <= limit:
            return matching.tolist()
        if len(query.sliders) == 1:
            ((attribute, weight),) = query.sliders.items()
            approximate = self._array(attribute)[matching] * (1.0 if weight > 0 else -1.0)
        else:
            approximate = numpy.zeros(len(matching))
            for attribute, weight in query.sliders.items():
                lower, upper = self.schema.domain_bounds(attribute)
                scaled = (self._array(attribute)[matching] - lower) / (upper - lower)
                approximate += weight * numpy.clip(scaled, 0.0, 1.0)
        # Keep every row within rounding distance of the limit-th score.
        cut = numpy.partition(approximate, limit - 1)[limit - 1]
        slack = SCORE_TOLERANCE * (1.0 + abs(float(cut)))
        return matching[approximate <= cut + slack].tolist()

    def expect(self, query: Query, limit: int) -> "Expectation":
        """What a session asking ``query`` now must serve in its first
        ``limit`` rows."""
        ranking = ranking_from_sliders(query.sliders, self.schema)
        search = SearchQuery.build(ranges=query.ranges)
        scores = sorted(
            ranking.score(self.rows[index])
            for index in self._candidates(query, limit)
            if search.matches(self.rows[index])
        )
        return Expectation(query, self.version, ranking, search, scores[:limit])


@dataclass
class Expectation:
    """What the oracle holds one session to."""

    query: Query
    version: int  # of the query's source catalog, when the session starts
    ranking: Any  # what ``ranking_from_sliders`` made of the query's sliders
    search: SearchQuery
    scores: List[float]  # of the answers in order, ascending


class Oracle:
    """Walks a trace once: materialises its plan and what it must serve."""

    def __init__(self, trace: Trace) -> None:
        self.plan: Dict[str, object] = {
            "workload": trace.workload,
            "seed": trace.seed,
            "catalog_size": trace.catalog_size,
            "shards": trace.shards,
            "faulty": trace.faulty,
            "clients": trace.clients,
            "next_pages": trace.next_pages,
            "warm_pages": trace.warm_pages,
            "queries": [query.payload() for query in trace.queries],
            "warm": list(range(len(trace.queries))) if trace.warm_pages else [],
            "sessions": trace.sessions,
        }
        # The shadow needs the catalogs, not the topology: build them unsharded.
        flat = dict(self.plan, shards=1, faulty=False)
        registry = replay.build_registry(flat, replay.service_config(flat))
        self.shadows = {name: ShadowCatalog(registry.get(name)) for name in registry.names()}
        self.expected: List[Expectation] = []
        deltas: Dict[str, Dict[str, List[Row]]] = {}
        limit = (1 + trace.next_pages) * PAGE_SIZE
        for index, query_index in enumerate(trace.sessions):
            for delta in trace.deltas.get(index, ()):
                rows = self.shadows[delta.source].reprice(delta)
                self.shadows[delta.source].upsert(rows)
                deltas.setdefault(str(index), {})[delta.source] = rows
            query = trace.queries[query_index]
            self.expected.append(self.shadows[query.source].expect(query, limit))
        self.plan["deltas"] = deltas

    def check(self, sessions: List[Dict[str, object]]) -> List[str]:
        """Mismatches between what a round served and the oracle (empty when
        the round is correct)."""
        problems = []
        if len(sessions) != len(self.expected):
            problems.append(f"{len(sessions)} sessions replayed, {len(self.expected)} expected")
        for index, (session, expectation) in enumerate(zip(sessions, self.expected)):
            problem = self._check_session(session, expectation)
            if problem:
                problems.append(f"session {index} (query {session['query']}) {problem}")
        return problems

    def _check_session(self, session: Dict[str, object], expectation: Expectation) -> str:
        shadow = self.shadows[expectation.query.source]
        ranking, search = expectation.ranking, expectation.search
        statuses: List[int] = session["statuses"]  # type: ignore[assignment]
        seen = set()
        position = 0
        for page, keys in enumerate(session["keys"]):  # type: ignore[arg-type]
            if statuses[page] != 200 or session["degraded"][page]:  # type: ignore[index]
                # A partial answer may differ, and says so; past a failed
                # request pages no longer line up with page numbers.
                break
            rows = [shadow.row_at(key, expectation.version) for key in keys]
            served = [{name: row[name] for name in shadow.columns} for row in rows]
            if replay.page_digest(served) != session["digests"][page]:  # type: ignore[index]
                return f"page {page + 1}: rows differ from the catalog's version of {keys}"
            for key, row in zip(keys, rows):
                if key in seen or not search.matches(row):
                    return f"page {page + 1}: {key} is repeated or does not match the filter"
                seen.add(key)
                if position >= len(expectation.scores):
                    return f"page {page + 1}: serves more rows than the query has answers"
                wanted = expectation.scores[position]
                if abs(ranking.score(row) - wanted) > SCORE_TOLERANCE * (1.0 + abs(wanted)):
                    return (
                        f"page {page + 1}: {key} scores {ranking.score(row)!r} at position "
                        f"{position + 1}, the oracle's row there scores {wanted!r}"
                    )
                position += 1
            if len(keys) < PAGE_SIZE and position < len(expectation.scores):
                return f"page {page + 1}: short page before the answers ran out"
        return ""
