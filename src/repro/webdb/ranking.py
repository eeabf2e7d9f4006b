"""Hidden system ranking functions.

A web database orders matching tuples with a proprietary ranking function
before truncating to the top ``k``.  The reranking algorithms never see this
function — they only observe the truncated, ordered result pages — but the
simulation needs concrete implementations.  Several families are provided so
the workloads can construct user ranking functions that are positively
correlated, negatively correlated, or independent with respect to the system
ranking, which is the main axis of the paper's demonstration scenarios.

All rankings produce a *score*; tuples are returned in ascending score order
(score is "position pressure": lower is shown earlier).  Ties are broken by the
tuple key so that result ordering is deterministic.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Dict, Mapping

from repro.webdb.query import Row


def _stable_unit_score(key: str, cache: Dict[str, float]) -> float:
    """Stable pseudo-random value in ``[0, 1)`` derived from ``key``,
    memoized in ``cache`` so each distinct key is hashed exactly once
    (catalog sorting would otherwise re-hash every key O(n log n) times)."""
    score = cache.get(key)
    if score is None:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        score = int.from_bytes(digest[:8], "big") / float(1 << 64)
        cache[key] = score
    return score


class SystemRankingFunction(ABC):
    """Interface of the hidden ranking used by a simulated web database."""

    @abstractmethod
    def score(self, row: Row) -> float:
        """Score of ``row``; lower scores are ranked earlier."""

    def describe(self) -> str:
        """Human-readable description (used only by diagnostics, never shown
        to the reranking algorithms)."""
        return type(self).__name__

    def sort_key(self, key_column: str):
        """Return a sort key callable combining the score with the tuple key
        for deterministic tie-breaking."""

        def _key(row: Row):
            return (self.score(row), str(row.get(key_column, "")))

        return _key


class AttributeOrderRanking(SystemRankingFunction):
    """Rank by a single attribute, ascending or descending.

    Real sites frequently default to "price: low to high" or "newest first";
    this captures both.
    """

    def __init__(self, attribute: str, ascending: bool = True) -> None:
        self.attribute = attribute
        self.ascending = ascending

    def score(self, row: Row) -> float:
        value = float(row[self.attribute])  # type: ignore[arg-type]
        return value if self.ascending else -value

    def describe(self) -> str:
        direction = "asc" if self.ascending else "desc"
        return f"order by {self.attribute} {direction}"


class LinearSystemRanking(SystemRankingFunction):
    """Rank by a hidden linear combination of numeric attributes."""

    def __init__(self, weights: Mapping[str, float]) -> None:
        if not weights:
            raise ValueError("LinearSystemRanking requires at least one weight")
        self.weights = dict(weights)

    def score(self, row: Row) -> float:
        return sum(
            weight * float(row[attribute])  # type: ignore[arg-type]
            for attribute, weight in self.weights.items()
        )

    def describe(self) -> str:
        terms = " + ".join(f"{w:g}*{a}" for a, w in sorted(self.weights.items()))
        return f"linear({terms})"


class FeaturedScoreRanking(SystemRankingFunction):
    """A "featured"/relevance style ranking that mixes a visible attribute with
    a stable pseudo-random per-tuple boost.

    This mimics rankings like Zillow's default ordering, which is correlated
    with — but not a deterministic function of — any single visible attribute.
    The boost is derived from a hash of the tuple key so it is stable across
    queries (a requirement of the top-k interface contract).
    """

    def __init__(self, attribute: str, boost_weight: float = 0.35) -> None:
        self.attribute = attribute
        self.boost_weight = boost_weight
        # Bounded by the number of distinct keys ever scored.
        self._boost_cache: Dict[str, float] = {}

    def score(self, row: Row) -> float:
        value = float(row[self.attribute])  # type: ignore[arg-type]
        boost = _stable_unit_score(str(row.get("id", "")), self._boost_cache)
        return value + self.boost_weight * boost

    def describe(self) -> str:
        return f"featured({self.attribute}, boost={self.boost_weight:g})"


class RandomTieBreakRanking(SystemRankingFunction):
    """A ranking completely independent of every visible attribute.

    Each tuple receives a stable pseudo-random score derived from its key.
    User ranking functions are, by construction, independent of this ordering,
    which is the hardest regime for the BASELINE algorithms.
    """

    def __init__(self, salt: str = "qr2") -> None:
        self.salt = salt
        self._score_cache: Dict[str, float] = {}

    def score(self, row: Row) -> float:
        key = f"{self.salt}:{row.get('id', '')}"
        return _stable_unit_score(key, self._score_cache)

    def describe(self) -> str:
        return "random(stable)"
