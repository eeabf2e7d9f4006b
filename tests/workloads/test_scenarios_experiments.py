"""Tests for the demonstration-scenario workloads and the experiment harness."""

import pytest

from repro.core.reranker import Algorithm
from repro.core.stats import RerankStatistics
from repro.workloads.experiments import (
    ExperimentEnvironment,
    default_1d_scenarios,
    default_md_scenarios,
    run_best_worst_cases,
    run_fig2_parallelism,
    run_fig4_statistics,
    run_onthefly_indexing,
    paid,
    run_scenario_suite,
)
from repro.workloads.scenarios import (
    CorrelationClass,
    bluenile_scenarios_1d,
    bluenile_scenarios_md,
    measure_correlation,
    zillow_scenarios_1d,
    zillow_scenarios_md,
)


@pytest.fixture(scope="module")
def environment() -> ExperimentEnvironment:
    # The pinned paper table's environment: small, fast, and still showing
    # the qualitative shapes.
    return ExperimentEnvironment(catalog_scale=0.08, system_k=10, latency_seconds=1.0)


class TestScenarioDefinitions:
    def test_scenario_suites_are_nonempty(self, environment):
        assert len(bluenile_scenarios_1d(environment.diamond_schema)) >= 4
        assert len(bluenile_scenarios_md(environment.diamond_schema)) >= 4
        assert len(zillow_scenarios_1d(environment.housing_schema)) >= 3
        assert len(zillow_scenarios_md(environment.housing_schema)) >= 3

    def test_scenario_rankings_validate_against_schema(self, environment):
        for scenario in default_1d_scenarios(environment) + default_md_scenarios(environment):
            schema = (
                environment.diamond_schema
                if scenario.source == "bluenile"
                else environment.housing_schema
            )
            scenario.ranking.validate(schema)
            scenario.query.validate(schema)
            assert scenario.dimensionality == scenario.ranking.dimensionality

    def test_describe_mentions_source_and_function(self, environment):
        scenario = bluenile_scenarios_md(environment.diamond_schema)[0]
        text = scenario.describe()
        assert "bluenile" in text and "price" in text

    def test_declared_correlations_match_data(self, environment):
        """The declared correlation class must agree with the measured
        correlation between user scores and the hidden system scores."""
        for scenario in bluenile_scenarios_1d(environment.diamond_schema):
            measured = measure_correlation(environment.bluenile, scenario)
            if scenario.correlation is CorrelationClass.POSITIVE:
                assert measured > 0.3, scenario.name
            elif scenario.correlation is CorrelationClass.NEGATIVE:
                assert measured < -0.3, scenario.name
            else:
                assert abs(measured) < 0.5, scenario.name

    def test_zillow_best_case_is_positively_correlated(self, environment):
        best_case = next(
            s for s in zillow_scenarios_md(environment.housing_schema) if "best_case" in s.name
        )
        assert measure_correlation(environment.zillow, best_case) > 0.5


class TestEnvironment:
    def test_database_lookup(self, environment):
        assert environment.database("bluenile").name == "bluenile"
        assert environment.database("zillow").name == "zillow"
        with pytest.raises(ValueError):
            environment.database("amazon")

    def test_scaled_catalog_sizes(self, environment):
        assert environment.bluenile.size >= 200
        assert environment.zillow.size >= 200


class TestHarness:
    def test_fig2_shape(self, environment):
        output = run_fig2_parallelism(environment, depth=4)
        assert set(output) == {"2d", "3d"}
        for label, payload in output.items():
            assert payload["external_queries"] > 0
            assert 0.0 <= payload["parallel_fraction"] <= 1.0
            # The paper's headline: the vast majority of queries go out in
            # parallel groups.
            assert payload["parallel_query_fraction"] > 0.5

    def test_fig2_round_trips_are_fewer_than_queries(self, environment):
        """A parallel group is one round trip: each function pays fewer
        round trips than queries, and its sequential queries at most one
        round trip each."""
        for payload in run_fig2_parallelism(environment, depth=4).values():
            sequential = payload["external_queries"] - payload["parallel_queries"]
            assert sequential <= payload["round_trips"] < payload["external_queries"]

    def test_fig4_statistics(self, environment):
        output = run_fig4_statistics(environment, page_size=5)
        assert output["rows_returned"] == 5
        assert output["external_queries"] > 0
        # Simulated seconds only: a parallel group costs one round trip, so
        # the request takes fewer seconds than it issues ~1 s queries.
        assert 0 < output["simulated_seconds"] < output["external_queries"]
        assert output["paper_reference"] == {"external_queries": 27, "seconds": 33.0}

    def test_scenario_suite(self, environment):
        scenarios = bluenile_scenarios_1d(environment.diamond_schema)[:2]
        results = run_scenario_suite(
            scenarios, [Algorithm.BINARY, Algorithm.RERANK], environment, depth=3
        )
        assert len(results) == 4
        for result in results:
            assert result.tuples_returned == 3
            assert result.external_queries > 0
            assert 0 < result.round_trips <= result.external_queries

    def test_ta_skipped_for_1d_scenarios(self, environment):
        scenarios = bluenile_scenarios_1d(environment.diamond_schema)[:1]
        results = run_scenario_suite(scenarios, [Algorithm.TA], environment, depth=2)
        assert results == []

    def test_onthefly_indexing_amortizes(self, environment):
        output = run_onthefly_indexing(environment, repetitions=3, depth=8)
        assert len(output["rerank_costs"]) == 3
        assert output["index_regions"] >= 1
        # Warm repetitions must be cheaper than the cold one, and cheaper than
        # the stateless binary baseline.
        assert output["rerank_costs"][1] < output["rerank_costs"][0]
        assert output["rerank_warm_cost"] < output["binary_amortized"]

    def test_best_worst_cases_shape(self, environment):
        output = run_best_worst_cases(environment, depth=8)
        worst, best = output["worst_case"], output["best_case"]
        assert worst["lwr_cluster_size"] > environment.system_k
        # The worst case costs (much) more than the best case the first time...
        assert worst["ta_cold"]["external_queries"] > best["ta"]["external_queries"]
        # ...and warms up once the dense region is indexed.
        assert worst["ta_warm"]["external_queries"] < worst["ta_cold"]["external_queries"]


class TestPaid:
    def test_round_trips_are_the_iterations(self):
        statistics = RerankStatistics()
        statistics.record_iteration(3, 1.5)
        statistics.record_iteration(1, 0.5)
        statistics.record_iteration(0, 9.0)
        assert paid(statistics) == {
            "external_queries": 4,
            "parallel_queries": 3,
            "round_trips": 2,
            "simulated_seconds": 2.0,
        }
