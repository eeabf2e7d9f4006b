"""Query accounting: counters and budgets.

The unit the paper optimizes is the number of search queries issued to the
remote web database.  Three small utilities make that unit first-class:

* :class:`Counters` — the base of every statistics holder behind the
  service's statistics panel: a counter is declared once, as a field;
* :class:`QueryCounter` — a one-field, thread-safe :class:`Counters` that a
  source counts its served queries in;
* :class:`QueryBudget` — a counter with a hard cap that raises
  :class:`~repro.exceptions.QueryBudgetExceeded` when the reranking algorithm
  would exceed the caller's allowance.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import MISSING, dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

from repro.exceptions import QueryBudgetExceeded


@dataclass
class Counters:
    """Thread-safe counters declared once, as the fields of a dataclass.

    A subclass lists its counters as fields in panel order (numbers, plus
    lists and dictionaries); every method below walks that declaration under
    one lock, so no holder writes its own locking, snapshot or reset.
    ``DERIVED_AFTER`` places a derived ratio (a lock-free property over the
    fields) in the snapshot right after its anchor field, and ``ROUNDED``
    gives the digits a non-integer entry is rounded to there.
    """

    DERIVED_AFTER: ClassVar[Dict[str, str]] = {}
    ROUNDED: ClassVar[Dict[str, int]] = {}

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, name: str, n: float = 1) -> None:
        """Add ``n`` to one counter."""
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def add(self, **counts: object) -> None:
        """Add to several counters in one step (a list field is extended in
        place)."""
        with self._lock:
            for name, n in counts.items():
                value = getattr(self, name)
                value += n
                setattr(self, name, value)

    def peak(self, **values: float) -> None:
        """Raise each high-water mark to at least its value."""
        with self._lock:
            for name, value in values.items():
                if value > getattr(self, name):
                    setattr(self, name, value)

    def tally(self, name: str, counts: Mapping[Any, int]) -> None:
        """Add ``counts``, key by key, to the dictionary counter ``name``."""
        with self._lock:
            totals = getattr(self, name)
            for key, n in counts.items():
                totals[key] = totals.get(key, 0) + n

    def read(self, *names: str):
        """One consistent read: the value of a single name, else a tuple."""
        with self._lock:
            values = [getattr(self, name) for name in names]
        return values[0] if len(values) == 1 else tuple(values)

    def snapshot(self) -> Dict[str, object]:
        """Every field in declaration order, each derived entry after its
        anchor, from one locked read; lists and dictionaries are copied."""
        order, containers = _layout(type(self))
        with self._lock:
            panel = {name: getattr(self, name) for name in order}
            for name in containers:
                panel[name] = panel[name].copy()
        for name, digits in self.ROUNDED.items():
            panel[name] = round(panel[name], digits)  # type: ignore[call-overload]
        return panel

    def reset(self) -> None:
        """Zero every counter together (empty lists and dictionaries)."""
        with self._lock:
            for spec in fields(self):
                setattr(self, spec.name, type(getattr(self, spec.name))())


@functools.lru_cache(maxsize=None)
def _layout(cls: type) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """A :class:`Counters` subclass's ``(snapshot order, container fields)``."""
    specs = fields(cls)
    derived = cls.DERIVED_AFTER  # type: ignore[attr-defined]
    order = tuple(
        entry for spec in specs for entry in (spec.name, derived.get(spec.name)) if entry
    )
    return order, tuple(spec.name for spec in specs if spec.default_factory is not MISSING)


@dataclass
class QueryCounter(Counters):
    """Thread-safe counter of queries issued against a web database."""

    count: int = 0

    def increment(self, amount: int = 1) -> int:
        """Add ``amount`` and return the new total."""
        return self.increment_capped(amount, None)[0]

    def increment_capped(self, amount: int, limit: Optional[int]) -> Tuple[int, bool]:
        """Atomically add ``amount`` unless the result would exceed ``limit``.

        Returns ``(total, accepted)``.  When the cap would be exceeded the
        counter is left *unchanged* — the check and the increment happen under
        one lock, so concurrent callers can never jointly overshoot the cap or
        inflate the count with a charge that was refused.
        """
        if amount < 0:
            raise ValueError("amount must be non-negative")
        with self._lock:
            if limit is not None and self.count + amount > limit:
                return self.count, False
            self.count += amount
            return self.count, True

    def decrement(self, amount: int = 1) -> int:
        """Subtract ``amount`` (floored at zero) and return the new total."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        with self._lock:
            self.count = max(self.count - amount, 0)
            return self.count


class QueryBudget:
    """A query counter with a hard cap.

    ``limit=None`` means unlimited; ``charge`` then simply counts.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative or None")
        self._limit = limit
        self._counter = QueryCounter()

    @property
    def limit(self) -> Optional[int]:
        """The cap, or ``None`` when unlimited."""
        return self._limit

    @property
    def used(self) -> int:
        """Queries charged so far."""
        return self._counter.count

    @property
    def remaining(self) -> Optional[int]:
        """Queries left before the cap, or ``None`` when unlimited."""
        if self._limit is None:
            return None
        return max(self._limit - self.used, 0)

    def charge(self, amount: int = 1) -> None:
        """Charge ``amount`` queries, raising when the cap would be exceeded.

        The check and the charge are atomic: a refused charge leaves ``used``
        untouched, so a query group that trips the budget does not inflate the
        count even though none of its queries ran.
        """
        total, accepted = self._counter.increment_capped(amount, self._limit)
        if not accepted:
            assert self._limit is not None
            raise QueryBudgetExceeded(budget=self._limit, issued=total + amount)

    def refund(self, amount: int = 1) -> None:
        """Return ``amount`` previously charged queries to the budget (used
        when a charged query turns out to be served without a round trip,
        e.g. it coalesced onto another session's identical in-flight query)."""
        self._counter.decrement(amount)
