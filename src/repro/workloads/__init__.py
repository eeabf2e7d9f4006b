"""Workload generators and the experiment harness that regenerates the
paper's figures and demonstration scenarios."""

from repro.workloads.scenarios import (
    CorrelationClass,
    Scenario,
    bluenile_scenarios_1d,
    bluenile_scenarios_md,
    zillow_scenarios_1d,
    zillow_scenarios_md,
)
from repro.workloads.experiments import (
    ExperimentResult,
    run_best_worst_cases,
    run_fig2_parallelism,
    run_fig4_statistics,
    run_onthefly_indexing,
    run_scenario_suite,
)

__all__ = [
    "CorrelationClass",
    "Scenario",
    "bluenile_scenarios_1d",
    "bluenile_scenarios_md",
    "zillow_scenarios_1d",
    "zillow_scenarios_md",
    "ExperimentResult",
    "run_fig2_parallelism",
    "run_fig4_statistics",
    "run_scenario_suite",
    "run_onthefly_indexing",
    "run_best_worst_cases",
]
