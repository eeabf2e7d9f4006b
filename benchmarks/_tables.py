"""Small rendering and metadata helpers shared by the benchmark modules."""

from __future__ import annotations

import platform
from typing import Dict, Iterable

from repro.webdb import arrays


def print_table(title: str, header: str, rows: Iterable[str]) -> None:
    """Print a paper-style table (shown with ``-s`` / in captured output)."""
    print("\n" + title)
    print("-" * max(len(title), len(header)))
    print(header)
    for row in rows:
        print(row)


def backend_metadata() -> Dict[str, object]:
    """Environment metadata every bench record should carry.

    History records are compared across machines; whether numpy was
    importable (and therefore which concrete layout the default
    ``"buffer"`` backend resolved to) changes the columnar engine's absolute
    numbers, so it must be visible in ``extra_info``.
    """
    return {
        "columnar_backend": arrays.resolve_backend("buffer"),
        "numpy_available": arrays.numpy_available(),
        "python": platform.python_version(),
    }
