"""The QR2 web-service layer: data sources, sessions, slider-based ranking
specifications, popular-function suggestions, a JSON HTTP API, and the
concurrent serving tier (bounded admission and per-session serialization on
the request's own thread) that fronts it."""

from repro.service.app import QR2Service
from repro.service.concurrent import ConcurrentQR2Application, ConcurrentServingTier
from repro.service.sources import DataSource, DataSourceRegistry, build_default_registry
from repro.service.sliders import ranking_from_sliders, sliders_from_ranking

__all__ = [
    "QR2Service",
    "ConcurrentQR2Application",
    "ConcurrentServingTier",
    "DataSource",
    "DataSourceRegistry",
    "build_default_registry",
    "ranking_from_sliders",
    "sliders_from_ranking",
]
