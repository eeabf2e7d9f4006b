"""The crawler's split rule before it read the overflowing answer.

:class:`WidestMidpointCrawler` halves the numeric attribute that is widest
relative to its domain, whatever the rows the overflowing query returned;
the production :class:`~repro.crawl.crawler.HiddenDatabaseCrawler` halves the
one whose midpoint divides those rows most evenly.  Both cut at the midpoint
and share the categorical fallback, so they retrieve the same tuples; the
differential in ``tests/crawl/test_crawler.py`` checks, region by region,
that the production rule spends no more queries and goes no deeper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.crawl.crawler import _MINIMUM_SPLIT_WIDTH, HiddenDatabaseCrawler
from repro.webdb.query import Row, SearchQuery


class WidestMidpointCrawler(HiddenDatabaseCrawler):
    """Split the widest numeric attribute at its midpoint, ignoring ``rows``."""

    def _choose_split(
        self, query: SearchQuery, rows: Sequence[Row]
    ) -> Optional[List[SearchQuery]]:
        schema = self._engine.schema
        best = None
        for name in schema.numeric_names:
            effective = query.effective_range(name, schema)
            if effective.width <= _MINIMUM_SPLIT_WIDTH:
                continue
            domain_lower, domain_upper = schema.domain_bounds(name)
            domain_width = max(domain_upper - domain_lower, _MINIMUM_SPLIT_WIDTH)
            relative_width = effective.width / domain_width
            if best is None or relative_width > best[0]:
                best = (relative_width, effective)
        if best is None:
            # Every numeric attribute is pinned: the shared categorical split.
            return super()._choose_split(query, ())
        effective = best[1]
        low, high = effective.split((effective.lower + effective.upper) / 2.0)
        return [query.with_range(low), query.with_range(high)]
