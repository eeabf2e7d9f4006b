"""``request_path/`` — the repo's one benchmark for cost — and the nightly
data-scale tier ``bench_catalog_scale.py``.  The paper's own figures are
pinned by ``tests/workloads/paper_currency.txt``, not benchmarked here."""
