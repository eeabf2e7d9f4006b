"""Pins the configuration surface: every independently settable field of the
three config dataclasses and of the two catalog configs, by name, and the
one retry / breaker policy every source's guard runs.  Adding a knob is a
deliberate diff here, with the two callers that need different values named
in the change."""

from dataclasses import fields

import pytest

from repro.config import DatabaseConfig, RerankConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.webdb.build import build_source
from repro.webdb.ranking import FeaturedScoreRanking

DATABASE_FIELDS = {
    "system_k", "latency_seconds", "latency_jitter", "seed", "shards",
    "shard_by", "latency_sleep", "fault_plan",
}
RERANK_FIELDS = {"enable_rerank_feed"}
SERVICE_FIELDS = {
    "default_page_size", "max_page_size", "session_ttl_seconds",
    "dense_cache_path", "database", "rerank",
    "serving_workers", "admission_queue_depth",
}
CATALOG_FIELDS = {"size", "seed"}


def names(config_class) -> set:
    return {field.name for field in fields(config_class)}


def test_config_field_sets_are_pinned():
    assert names(DatabaseConfig) == DATABASE_FIELDS
    assert names(RerankConfig) == RERANK_FIELDS
    assert names(ServiceConfig) == SERVICE_FIELDS
    assert len(DATABASE_FIELDS) + len(RERANK_FIELDS) + len(SERVICE_FIELDS) == 17


def test_catalog_configs_set_only_size_and_seed():
    assert names(DiamondCatalogConfig) == CATALOG_FIELDS
    assert names(HousingCatalogConfig) == CATALOG_FIELDS


@pytest.mark.parametrize("shards", [1, 3])
def test_every_guard_runs_the_one_policy(diamond_catalog, diamond_schema_fixture, shards):
    source = build_source(
        diamond_catalog,
        diamond_schema_fixture,
        FeaturedScoreRanking("price", boost_weight=2500.0),
        DatabaseConfig(system_k=10, shards=shards),
        name="policy",
    )
    stacks = [source] if shards == 1 else source._stacks
    assert len(stacks) == shards
    for stack in stacks:
        policy, breaker = stack.guard.policy, stack.guard.breaker
        assert (policy.max_attempts, policy.base_seconds, policy.cap_seconds, policy.seed) == (
            3, 0.05, 2.0, 17,
        )
        assert (breaker.failure_threshold, breaker.recovery_seconds) == (5, 30.0)
