"""The repo's benchmark: seeded traces replayed through the real HTTP request
path, end-to-end metrics with regression bounds, and a per-layer trace.  See
``README.md`` in this directory and ``BENCHMARK.json`` at the repo root."""
