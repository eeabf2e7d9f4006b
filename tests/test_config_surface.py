"""Pins the configuration surface: every independently settable field of the
three config dataclasses, and of the resilience policy nested in
``RerankConfig.resilience``, by name.  Adding a knob is a deliberate diff
here, with the two callers that need different values named in the PR."""

from dataclasses import fields

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.webdb.resilience import ResilienceConfig

DATABASE_FIELDS = {
    "system_k", "latency_seconds", "latency_jitter", "seed", "shards",
    "shard_by", "latency_sleep", "fault_plan",
}
RERANK_FIELDS = {
    "dense_ratio_threshold", "enable_rerank_feed", "resilience",
}
SERVICE_FIELDS = {
    "default_page_size", "max_page_size", "session_ttl_seconds",
    "dense_cache_path", "database", "rerank",
    "serving_workers", "admission_queue_depth",
}
RESILIENCE_FIELDS = {
    "max_attempts", "backoff_base_seconds", "backoff_cap_seconds",
    "backoff_seed", "breaker_failure_threshold", "breaker_recovery_seconds",
}


def names(config_class) -> set:
    return {field.name for field in fields(config_class)}


def test_config_field_sets_are_pinned():
    assert names(DatabaseConfig) == DATABASE_FIELDS
    assert names(RerankConfig) == RERANK_FIELDS
    assert names(ServiceConfig) == SERVICE_FIELDS
    assert len(DATABASE_FIELDS) + len(RERANK_FIELDS) + len(SERVICE_FIELDS) == 19


def test_resilience_policy_fields_are_pinned():
    assert names(ResilienceConfig) == RESILIENCE_FIELDS
    assert len(RESILIENCE_FIELDS) == 6

