"""Reference implementations kept as test oracles.

The seed's row-at-a-time scan engine is what the production engine
(``IndexedColumnarEngine``) is differentially tested and benchmarked against.
It is substituted, never configured: a subclass overrides the one private
construction hook (``HiddenWebDatabase._make_engine``).  The second
oracle, the pure-Python ``"list"`` column layout, is
``ColumnarCatalog(backend="list")``; the third, ``reference_candidates``, is the seed's sort-everything read of the session
cache that each stream's ``CandidateHeap`` replaced; the fourth,
``reference_text_grid``, is the table round trip that rendered a page's text
grid before ``format_grid`` read the page's rows directly; the fifth,
``RebuildDatabase``, is the rebuild-the-whole-catalog ``apply_delta`` that
``ColumnarCatalog.spliced`` replaced; the sixth, ``covering_scan``, is the
linear walk over every covering entry in scope that the result cache's
``BoxIndex`` replaced; the seventh, ``WidestMidpointCrawler``, is the crawler
splitting the widest attribute without reading the overflowing answer; the
eighth, ``reference_sorted_columns``, is the row-at-a-time catalog load (with
its per-value ``reference_validate_row``) that the column-wise
``stream_sorted_columns`` replaced.

Importable as ``tests.reference`` with the repository root on ``sys.path``
(``python -m pytest`` from the root, or ``PYTHONPATH=src:.``).
"""

from tests.reference.candidates import reference_candidates
from tests.reference.catalog_load import reference_sorted_columns, reference_validate_row
from tests.reference.catalog_rebuild import RebuildDatabase
from tests.reference.covering_scan import covering_count, covering_scan
from tests.reference.crawler import WidestMidpointCrawler
from tests.reference.engine import (
    NaiveScanDatabase,
    NaiveScanEngine,
    database_on_layout,
)
from tests.reference.text_grid import reference_text_grid

__all__ = [
    "NaiveScanDatabase",
    "NaiveScanEngine",
    "RebuildDatabase",
    "WidestMidpointCrawler",
    "covering_count",
    "covering_scan",
    "database_on_layout",
    "reference_candidates",
    "reference_sorted_columns",
    "reference_text_grid",
    "reference_validate_row",
]
