"""Benchmark harness regenerating every figure and demonstration scenario of
the paper (the experiment index heads ``repro.workloads.experiments``)."""
