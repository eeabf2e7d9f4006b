"""The seed session-cache read: re-filter, re-score and re-sort every seen
tuple on every call.

This is what ``Session.cached_candidates`` did before a stream kept a
:class:`repro.core.session.CandidateHeap`; its first element is what the
heap's ``best`` must return.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from repro.core.functions import UserRankingFunction
from repro.webdb.query import SearchQuery

Row = Mapping[str, object]


def reference_candidates(
    seen: Mapping[object, Row],
    emitted: Iterable[object],
    query: SearchQuery,
    ranking: UserRankingFunction,
    floor: float,
    key_column: str,
    inclusive: bool = True,
) -> List[Dict[str, object]]:
    """The current versions in ``seen`` that match ``query``, are not in
    ``emitted`` and score beyond ``floor`` (or on it, when ``inclusive``),
    best first under ``(score, str(key))``."""
    emitted = set(emitted)
    candidates = []
    for row in seen.values():
        if row[key_column] in emitted or not query.matches(row):
            continue
        score = ranking.score(row)
        if score > floor or (inclusive and score == floor):
            candidates.append(dict(row))
    candidates.sort(key=lambda row: (ranking.score(row), str(row[key_column])))
    return candidates
