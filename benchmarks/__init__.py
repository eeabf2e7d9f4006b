"""The paper's figures and demonstration scenarios as ``bench_*.py`` modules
(one per row of the experiment index heading ``repro.workloads.experiments``,
plus the ablations and the nightly catalog-scale tier), beside
``request_path/`` — the repo's one benchmark for cost."""
