"""Warm-start tests: the QR2 service persists its shared result cache across
restarts, so a rebooted service replays the previous process's workload with
zero external round trips."""

import os

from repro.config import ServiceConfig
from repro.service.app import QR2Service

FILTERS = {"ranges": {"carat": [0.5, 1.5]}}
SLIDERS = {"price": -1.0}


def _run_request(service, source="bluenile", algorithm="binary"):
    session_id = service.create_session()
    return service.submit_query(
        session_id, source, filters=FILTERS, sliders=SLIDERS, algorithm=algorithm
    )


class TestServicePersistence:
    def test_warm_restart_serves_prior_workload_for_free(self, tmp_path):
        path = os.fspath(tmp_path / "results.sqlite")
        config = ServiceConfig(result_cache_path=path)

        cold = QR2Service(config=config)
        assert cold.warm_loaded_entries == 0
        cold_response = _run_request(cold)
        cold_queries = cold_response["statistics"]["external_queries"]
        assert cold_queries > 0
        saved = cold.save_result_cache()
        assert saved > 0
        cold.close()

        warm = QR2Service(config=config)
        assert warm.warm_loaded_entries == saved
        warm_response = _run_request(warm)
        statistics = warm_response["statistics"]
        # The replayed session costs zero external round trips...
        assert statistics["external_queries"] == 0
        assert statistics["result_cache_hits"] > 0
        # ...and returns byte-identical pages.
        assert warm_response["rows"] == cold_response["rows"]
        panel = warm.statistics(warm_response["session_id"])
        assert panel["result_cache_persistence"] == {
            "path": path,
            "warm_loaded_entries": saved,
        }
        warm.close()

    def test_close_persists_without_explicit_save(self, tmp_path):
        path = os.fspath(tmp_path / "results.sqlite")
        config = ServiceConfig(result_cache_path=path)
        cold = QR2Service(config=config)
        _run_request(cold)
        cold.close()  # close() snapshots on the way out

        warm = QR2Service(config=config)
        assert warm.warm_loaded_entries > 0
        warm.close()

    def test_no_persistence_without_path(self):
        service = QR2Service(config=ServiceConfig())
        assert service.result_cache is not None  # the one shared cache
        assert service.save_result_cache() == 0
        response = _run_request(service)
        panel = service.statistics(response["session_id"])
        assert panel["result_cache_persistence"] is None
        service.close()  # must be a safe no-op

    def test_warm_entries_enable_containment_for_new_queries(self, tmp_path):
        """A warm-loaded covering entry answers *narrower* queries the prior
        process never issued."""
        path = os.fspath(tmp_path / "results.sqlite")
        config = ServiceConfig(result_cache_path=path)
        cold = QR2Service(config=config)
        _run_request(cold)
        cold.close()

        warm = QR2Service(config=config)
        cache = warm.result_cache
        assert cache is not None
        before = cache.statistics.snapshot()
        session_id = warm.create_session()
        # A slightly narrower filter: every probe the binary search issues is
        # contained in the prior session's probes or answered exactly.
        response = warm.submit_query(
            session_id,
            "bluenile",
            filters={"ranges": {"carat": [0.55, 1.45]}},
            sliders=SLIDERS,
            algorithm="binary",
        )
        after = cache.statistics.snapshot()
        statistics = response["statistics"]
        # The narrower workload must get at least some zero-cost answers.
        assert (
            statistics["result_cache_hits"]
            + statistics["contained_answers"]
            + after["contained"]
            - before["contained"]
            > 0
        )
        warm.close()
