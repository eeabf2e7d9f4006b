"""Exception hierarchy for the QR2 reproduction.

Every error raised by the library derives from :class:`QR2Error` so that
callers embedding the reranking service can catch a single base class at the
service boundary while still being able to distinguish failure modes.
"""

from __future__ import annotations

from typing import Optional


class QR2Error(Exception):
    """Base class for every error raised by this library."""


class SchemaError(QR2Error):
    """A table, query, or ranking function referenced an unknown attribute or
    used an attribute in a way its kind does not support."""


class QueryError(QR2Error):
    """A search query is malformed (empty ranges, inverted bounds, predicates
    on attributes that are not searchable through the public interface)."""


class RankingFunctionError(QR2Error):
    """A user ranking function is malformed (no attributes, non-monotone
    specification, weights outside the supported range)."""


class QueryBudgetExceeded(QR2Error):
    """The reranking algorithm hit the caller-imposed limit on the number of
    queries it may issue against the underlying web database."""

    def __init__(self, budget: int, issued: int) -> None:
        super().__init__(
            f"query budget exceeded: issued {issued} queries, budget {budget}"
        )
        self.budget = budget
        self.issued = issued


class CrawlError(QR2Error):
    """The hidden-database crawler could not make progress (for example the
    region cannot be subdivided further yet still overflows)."""


class DenseRegionError(QR2Error):
    """The dense-region index was asked for a region it does not cover, or a
    cached region is inconsistent with the live database."""


class SessionError(QR2Error):
    """A service call referenced a session that does not exist or has been
    invalidated."""


class DataSourceError(QR2Error):
    """A service call referenced an unknown data source."""


class ServiceOverloadedError(QR2Error):
    """The concurrent serving tier's admission queue is full (or the tier is
    draining): the request was rejected without being executed.  The HTTP
    layer maps this to a ``429 Too Many Requests`` response."""


class WireFormatError(QR2Error):
    """An HTTP request or response could not be encoded or decoded."""


class SourceUnavailableError(QR2Error):
    """A source (or shard) could not answer a query: every retry failed, its
    circuit breaker is open, or its fault schedule says it is down.  Carries
    the simulated time already paid waiting on the source and, when known, a
    hint for when a retry could succeed.  The HTTP layer maps this to a
    ``503 Service Unavailable`` response."""

    def __init__(
        self,
        message: str,
        *,
        source: str = "",
        elapsed_seconds: float = 0.0,
        retry_after_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.source = source
        self.elapsed_seconds = elapsed_seconds
        self.retry_after_seconds = retry_after_seconds


class RemoteInterfaceError(SourceUnavailableError):
    """The HTTP-backed search interface could not answer: the site was
    unreachable or kept answering an error status after the client's
    retries (a 429's ``Retry-After`` becomes ``retry_after_seconds``)."""


class SourceTimeoutError(SourceUnavailableError):
    """A source query exceeded its per-attempt timeout (the fault schedule
    stalled the round trip past the resilience policy's patience)."""


class CircuitOpenError(SourceUnavailableError):
    """The source's circuit breaker is open: recent failures tripped it, so
    the call was rejected *without* paying the source's round trip.  The
    ``retry_after_seconds`` hint is the time until the breaker admits a
    half-open probe."""

