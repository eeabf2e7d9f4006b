"""Numeric buffer backends for the columnar storage layer.

The columnar catalog (:mod:`repro.webdb.indexes`) stores numeric columns,
sorted indexes, and rank arrays in one of three representations:

* ``"list"`` — plain Python lists of objects, the seed reference layout.
  Kept bit-for-bit identical to the original implementation; the layout
  differential tests select it with ``ColumnarCatalog(backend="list")``;
* ``"array"`` — :mod:`array` buffers (``array('d')`` for floats,
  ``array('q')`` for rank positions and integer columns): 8 bytes per value
  instead of an 8-byte pointer plus a boxed Python object.  Always available
  (standard library only);
* ``"numpy"`` — the same compact buffers exposed as ``numpy`` views so the
  execution engine's tight loops (range filters, candidate sorting) run as
  vectorized C loops.  Only selectable when numpy is importable.

``"buffer"`` (the default) resolves to ``"numpy"`` when numpy is
importable and ``"array"`` otherwise, so the compact layout never becomes a
hard dependency.  ``backend="array"`` picks the stdlib layout explicitly
even where numpy is installed.

The helpers in this module are the *only* place backend types are
dispatched: the engine asks for a range filter / candidate sorter / position
space and receives a closure appropriate for whatever buffer type the
catalog handed it.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, List, Sequence, Tuple

try:  # pragma: no cover - which branch runs depends on the machine
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Backend names accepted by ``ColumnarCatalog(backend=)``.
BACKEND_NAMES: Tuple[str, ...] = ("buffer", "list", "array", "numpy")

#: A block filter: rank positions in → surviving rank positions out.
BlockFilter = Callable[[Sequence[int]], Sequence[int]]

#: Typecode for rank positions / integer columns: signed 64-bit.
INT_TYPECODE = "q"


def numpy_available() -> bool:
    """True when the numpy-accelerated backend can be selected."""
    return _np is not None


def resolve_backend(name: str) -> str:
    """Resolve a backend knob value to a concrete backend.

    ``"buffer"`` picks ``"numpy"`` when importable and ``"array"``
    otherwise; explicit names pass through (``"numpy"`` raises when numpy is
    unavailable so a forced configuration fails loudly instead of silently
    degrading).
    """
    if name == "buffer":
        return "numpy" if _np is not None else "array"
    if name in ("list", "array"):
        return name
    if name == "numpy":
        if _np is None:
            raise ValueError(
                "columnar backend 'numpy' requested but numpy is not importable"
            )
        return "numpy"
    raise ValueError(
        f"unknown columnar backend {name!r}; expected one of: {', '.join(BACKEND_NAMES)}"
    )


# ---------------------------------------------------------------------- #
# Buffer constructors
# ---------------------------------------------------------------------- #
def float_buffer(values: Sequence[float], backend: str):
    """Pack ``values`` (already floats) into the backend's float layout."""
    if backend == "list":
        return list(values)
    packed = values if isinstance(values, array) else array("d", values)
    if backend == "numpy":
        return _np.frombuffer(packed, dtype=_np.float64)
    return packed


def is_float_buffer(column: object) -> bool:
    """True when ``column`` is a compact float buffer (not an object list)."""
    if isinstance(column, array):
        return column.typecode == "d"
    return _np is not None and isinstance(column, _np.ndarray)


def is_int_buffer(column: object) -> bool:
    """True when ``column`` is a compact integer buffer."""
    if isinstance(column, array):
        return column.typecode == INT_TYPECODE
    return _np is not None and isinstance(column, _np.ndarray)


def pack_raw_column(values: List[object], backend: str) -> object:
    """Try to replace an object column with a compact raw buffer.

    Only columns that are *losslessly* representable move into buffers:
    every value must be exactly ``float`` (no ``bool``, no ints, no NaN —
    NaN is excluded because a materialized NaN would be a fresh object and
    ``nan == nan`` is false, breaking byte-identity with the reference
    engine) or exactly ``int`` within signed-64-bit range.  Anything else
    keeps the original list so materialized rows carry the original
    objects.

    One pass over the value types decides, and ``array`` converts at C
    speed.  Raw buffers are always stdlib ``array`` objects —
    even under the numpy backend — so materialized rows contain plain Python
    ``float``/``int`` values (a ``np.float64`` would not be JSON
    serializable and would not be byte-identical downstream); the numpy
    backend takes zero-copy ndarray *views* of these buffers for its
    vectorized loops.
    """
    if isinstance(values, array):
        # Already packed (a spliced successor); an emptied one is the plain
        # list a fresh build of no rows holds.
        return values if values else []
    if backend == "list" or not values:
        return values
    kinds = set(map(type, values))
    if kinds == {float}:
        return values if any(map(math.isnan, values)) else array("d", values)
    if kinds == {int}:
        try:
            return array(INT_TYPECODE, values)
        except OverflowError:
            return values
    return values


# ---------------------------------------------------------------------- #
# Engine primitives
# ---------------------------------------------------------------------- #
def position_space(size: int, backend: str) -> Sequence[int]:
    """The full rank-position sequence scans iterate, in backend layout.

    ``numpy`` gets a materialized ``arange`` whose block slices are
    zero-copy views feeding the vectorized filters; the other backends keep
    the constant-memory ``range``.
    """
    if backend == "numpy":
        return _np.arange(size, dtype=_np.int64)
    return range(size)


def make_range_filter(
    column: object,
    lower: float,
    upper: float,
    include_lower: bool,
    include_upper: bool,
) -> BlockFilter:
    """Block filter keeping the positions whose column value lies in range.

    Dispatches on the column's buffer type: numpy arrays get a single
    vectorized comparison per block; lists and ``array('d')`` buffers keep
    the C-level list-comprehension loop of the reference implementation.
    """
    if _np is not None and isinstance(column, _np.ndarray):
        np = _np

        def vector_filter(
            ranks: Sequence[int],
            c=column,
            lo=lower,
            hi=upper,
            il=include_lower,
            iu=include_upper,
        ) -> Sequence[int]:
            idx = ranks if isinstance(ranks, np.ndarray) else np.asarray(ranks, dtype=np.int64)
            values = c[idx]
            mask = (values >= lo) if il else (values > lo)
            mask &= (values <= hi) if iu else (values < hi)
            return idx[mask]

        return vector_filter
    if include_lower and include_upper:
        return lambda ranks, c=column, lo=lower, hi=upper: [
            i for i in ranks if lo <= c[i] <= hi
        ]
    if include_lower:
        return lambda ranks, c=column, lo=lower, hi=upper: [
            i for i in ranks if lo <= c[i] < hi
        ]
    if include_upper:
        return lambda ranks, c=column, lo=lower, hi=upper: [
            i for i in ranks if lo < c[i] <= hi
        ]
    return lambda ranks, c=column, lo=lower, hi=upper: [
        i for i in ranks if lo < c[i] < hi
    ]


def sorted_positions(ranks_by_value: object, start: int, stop: int) -> Sequence[int]:
    """The rank positions of ``ranks_by_value[start:stop]``, sorted ascending.

    This is the candidate-extraction hot path: under numpy it is a C sort of
    an int64 slice instead of a Python ``sorted`` over boxed ints.
    """
    if _np is not None and isinstance(ranks_by_value, _np.ndarray):
        return _np.sort(ranks_by_value[start:stop])
    return sorted(ranks_by_value[start:stop])


def stable_argsort(values: Sequence[float], backend: str):
    """``(sorted values, rank positions)`` for a float column, ties broken by
    rank position — exactly the order ``sorted(zip(values, range(n)))``
    produces in the reference implementation."""
    if backend == "numpy":
        packed = values if isinstance(values, _np.ndarray) else _np.asarray(values, dtype=_np.float64)
        order = _np.argsort(packed, kind="stable")
        return packed[order], order.astype(_np.int64, copy=False)
    pairs = sorted(zip(values, range(len(values))))
    sorted_values = [value for value, _ in pairs]
    positions = [rank for _, rank in pairs]
    if backend == "array":
        return array("d", sorted_values), array(INT_TYPECODE, positions)
    return sorted_values, positions
