"""Covering-box index: which stored boxes contain a probe box on every side?

A *box* is a ``SearchQuery``: its ``ranges`` are the sides, its
``memberships`` (none for a dense region) the rest.  Boxes are grouped by
*signature* — sorted range attributes, sorted membership attributes — and a
probe walks only the groups whose range and membership attributes are
subsets of its own.  A group is sorted by lower bound on its first range
attribute (its *axis*; without one, every box spans ``[-inf, inf]``) beside
a prefix maximum of upper bounds: a probe bisects its lower bound and walks
backward until that maximum drops below its upper bound, so it costs the
bisect plus the boxes straddling it on the axis.  It yields only those that
contain the probe on every range side, exclusive bounds respected;
membership values are the caller's exact check.  ``RangePredicate`` rejects
NaN bounds, so the order is total.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

#: Sorted range attributes, sorted membership attributes.
Signature = Tuple[Tuple[str, ...], Tuple[str, ...]]

#: ``(lower, exclusive)`` or ``(upper, inclusive)``: an exclusive bound sorts
#: inside the inclusive one at the same value.
Bound = Tuple[float, bool]


def _bounds(side) -> Tuple[Bound, Bound]:
    """A range side's lower and upper bounds."""
    return (side.lower, not side.include_lower), (side.upper, side.include_upper)


class _Group:
    """One signature's boxes, in axis order, with all their bounds; kept
    when emptied."""

    def __init__(self, signature: Signature) -> None:
        self.attributes = signature[0]
        self.ranges = frozenset(signature[0])
        self.memberships = frozenset(signature[1])
        self.axis: Optional[str] = signature[0][0] if signature[0] else None
        self.lowers: List[float] = []
        self.uppers: List[float] = []
        self.reach: List[float] = []  #: ``reach[i] == max(uppers[: i + 1])``
        self.sides: List[Tuple[Tuple[Bound, Bound], ...]] = []
        self.keys: List[Hashable] = []
        self.payloads: List[object] = []

    def bounds(self, sides: Dict[str, object]) -> Tuple[float, float]:
        """A box's ``(lower, upper)`` on the axis, given its sides by name."""
        side = sides.get(self.axis)
        return (side.lower, side.upper) if side is not None else (-math.inf, math.inf)

    def refresh(self, start: int) -> None:
        """Recompute the prefix maximum from ``start`` (just inserted or
        deleted at) until it agrees with the old one: nothing later moved."""
        reach, uppers = self.reach, self.uppers
        running = reach[start - 1] if start else -math.inf
        for position in range(start, len(uppers)):
            running = max(running, uppers[position])
            if reach[position] == running:
                return
            reach[position] = running


class BoxIndex:
    """Boxes grouped by signature, each group sorted on its axis; keyed by
    any hashable the caller picks.  Not thread-safe: callers hold a lock."""

    def __init__(self) -> None:
        self._groups: Dict[Signature, _Group] = {}
        self._where: Dict[Hashable, Tuple[_Group, float]] = {}

    def __len__(self) -> int:
        return len(self._where)

    def add(self, key: Hashable, box, payload: object) -> None:
        """Store ``box`` under ``key``, replacing what was stored there."""
        self.discard(key)
        sides = {side.attribute: side for side in box.ranges}
        signature = (tuple(sorted(sides)), tuple(sorted(p.attribute for p in box.memberships)))
        group = self._groups.get(signature)
        if group is None:
            group = self._groups[signature] = _Group(signature)
        lower, upper = group.bounds(sides)
        position = bisect_right(group.lowers, lower)
        group.lowers.insert(position, lower)
        group.uppers.insert(position, upper)
        group.reach.insert(position, math.nan)  # never equal: refresh sets it
        group.sides.insert(position, tuple(_bounds(sides[name]) for name in group.attributes))
        group.keys.insert(position, key)
        group.payloads.insert(position, payload)
        group.refresh(position)
        self._where[key] = (group, lower)

    def discard(self, key: Hashable) -> None:
        """Forget the box stored under ``key`` (a no-op for an unknown key)."""
        located = self._where.pop(key, None)
        if located is None:
            return
        group, lower = located
        position = group.keys.index(key, bisect_left(group.lowers, lower))
        for column in (group.lowers, group.uppers, group.reach, group.sides, group.keys, group.payloads):
            del column[position]
        group.refresh(position)

    def covering(self, box) -> Iterator[object]:
        """Payloads of the stored boxes that contain ``box`` on every range
        side.  The caller may discard the entry it was just handed before
        resuming; any other change invalidates the walk."""
        sides = {side.attribute: side for side in box.ranges}
        names = frozenset(sides)
        memberships = frozenset(p.attribute for p in box.memberships)
        for group in tuple(self._groups.values()):
            if not (group.ranges <= names and group.memberships <= memberships):
                continue
            lower, upper = group.bounds(sides)
            wanted = [_bounds(sides[name]) for name in group.attributes]
            uppers, reach, stored, payloads = group.uppers, group.reach, group.sides, group.payloads
            position = bisect_right(group.lowers, lower)
            while position:
                position -= 1
                if reach[position] < upper:
                    break  # nothing at or before here reaches the upper bound
                if uppers[position] < upper:
                    continue
                for (low, high), (want_low, want_high) in zip(stored[position], wanted):
                    if low > want_low or high < want_high:
                        break  # this side does not hold the probe's
                else:
                    yield payloads[position]
