"""MD-TA: the Threshold Algorithm on top of 1D-RERANK sorted access.

Fagin's Threshold Algorithm needs, for every ranking attribute, a list of the
tuples sorted by that attribute.  A hidden web database offers no such lists —
but the 1D-RERANK Get-Next primitive *simulates* sorted access: repeatedly
asking "next tuple by attribute ``Aᵢ``" walks the database in ``Aᵢ`` order
while issuing only top-k queries.  The ICDE'18 paper lists MD-TA as the third
MD algorithm built exactly this way.

Each retrieved tuple is complete (the search interface returns whole rows), so
"random access" to the other attributes is free.  The stopping rule is the
classic one: once the best eligible candidate scores no worse than the
threshold

.. math:: \\tau = \\sum_i w_i \\cdot \\tilde{x}_i(\\text{latest value seen on list } i)

no undiscovered tuple can beat it, because every list is consumed in the
direction its weight prefers.

The candidates are the stream's :class:`~repro.core.session.CandidateHeap`
over everything the session has seen, not only what the sorted-access
streams discovered: a seen row is a current tuple (the session drops what a
change touched), so the rule stays sound, and each row is scored once, when
the heap absorbs it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.core.dense_index import DenseRegionIndex
from repro.core.functions import LinearRankingFunction, SingleAttributeRanking, weighted
from repro.core.getnext import Variant
from repro.core.onedim import OneDimGetNext
from repro.core.parallel import QueryEngine
from repro.core.session import ChangeWatch, Session
from repro.exceptions import RankingFunctionError
from repro.webdb.delta import ChangeLog
from repro.webdb.query import Row, SearchQuery

_TOLERANCE = 1e-9


class ThresholdAlgorithmGetNext:
    """Get-Next driver implementing MD-TA.  Its sorted-access streams are
    1D-RERANK streams sharing ``dense_index``."""

    def __init__(
        self,
        engine: QueryEngine,
        base_query: SearchQuery,
        ranking: LinearRankingFunction,
        session: Session,
        dense_index: DenseRegionIndex,
        changes: Optional[ChangeLog] = None,
    ) -> None:
        if ranking.dimensionality < 2:
            raise RankingFunctionError(
                "MD-TA requires at least two ranking attributes"
            )
        self._engine = engine
        self._base_query = base_query
        self._ranking = ranking
        self._session = session
        self._dense_index = dense_index
        self._statistics = session.statistics
        self._changes = changes or ChangeLog()
        self._watch = ChangeWatch(self._changes, session, base_query)

        ranking.validate(engine.schema)
        base_query.validate(engine.schema)

        self._streams: Dict[str, OneDimGetNext] = {}
        self._latest_value: Dict[str, Optional[float]] = {}
        self._stream_done: Dict[str, bool] = {}
        self._candidates = session.cached_candidates(base_query, ranking, engine.key_column)
        self._open_streams()
        self._frontier_score = -math.inf
        self._exhausted = False

    def _open_streams(self) -> None:
        """Start sorted access from the top of every list: at construction,
        and again after a catalog change that can match the filter query,
        which may have moved a tuple behind a stream's cursor.  The
        candidates need no reset: the session has already dropped every row
        the change may have touched.

        One stream per ranking attribute.  Each owns a private session (its
        notion of "emitted" is its cursor position, not what the user has
        been shown) but shares the engine, so every query it issues is
        charged to this request."""
        for attribute in self._ranking.attributes:
            self._streams[attribute] = OneDimGetNext(
                engine=self._engine,
                base_query=self._base_query,
                ranking=SingleAttributeRanking(
                    attribute, ascending=self._ranking.weight(attribute) > 0
                ),
                session=Session(session_id=f"{self._session.session_id}:ta:{attribute}"),
                variant=Variant.RERANK,
                dense_index=self._dense_index,
                changes=self._changes,
            )
            self._latest_value[attribute] = None
            self._stream_done[attribute] = False

    # ------------------------------------------------------------------ #
    @property
    def variant(self) -> str:
        """Descriptive name of the algorithm."""
        return "ta"

    def next(self) -> Optional[Row]:
        """Return the next tuple in the user's order, or ``None``."""
        if self._exhausted:
            self._statistics.record("get_next_calls")
            return None
        if self._watch.changed():
            self._open_streams()
        best = self._find_next_tuple()
        if best is None:
            self._exhausted = True
            self._statistics.record("get_next_calls")
            return None
        self._frontier_score = best[0]
        row = best[2]
        self._session.mark_emitted(row, self._engine.key_column)
        self._statistics.add(get_next_calls=1, tuples_returned=1)
        return row

    # ------------------------------------------------------------------ #
    def _best(self) -> Optional[Tuple[float, str, Row]]:
        """``(score, str(key), row)`` of the best seen tuple not yet returned
        and not before the frontier."""
        return self._candidates.best(self._frontier_score - _TOLERANCE)

    def _threshold(self) -> Optional[float]:
        """Current TA threshold, or ``None`` until every live stream has
        produced at least one tuple."""
        total = 0.0
        for term in self._ranking.terms:
            latest = self._latest_value[term[0]]
            if latest is None:
                return None
            total += weighted(term, latest)
        return total

    def _any_stream_done(self) -> bool:
        """True once any sorted-access stream is exhausted — that stream has
        then enumerated every matching tuple, so nothing is undiscovered."""
        return any(self._stream_done.values())

    def _advance_stream(self, attribute: str) -> None:
        stream = self._streams[attribute]
        row = stream.next()
        if row is None:
            self._stream_done[attribute] = True
            return
        self._latest_value[attribute] = float(row[attribute])  # type: ignore[arg-type]
        self._session.remember([row], self._engine.key_column)

    # ------------------------------------------------------------------ #
    def _find_next_tuple(self) -> Optional[Tuple[float, str, Row]]:
        best = self._best()

        while True:
            threshold = self._threshold()
            if best is not None and threshold is not None:
                if best[0] <= threshold + _TOLERANCE:
                    return best
            if self._any_stream_done():
                # An exhausted stream has walked every matching tuple, so the
                # best eligible seen tuple (possibly None) is the answer.
                return best

            # One round of sorted access: advance every live stream by one.
            for attribute in self._ranking.attributes:
                if not self._stream_done[attribute]:
                    self._advance_stream(attribute)
            best = self._best()
