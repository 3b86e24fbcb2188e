"""The layered benchmark: four workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory.  ``run.py`` is the one-workload
command ``BENCHMARK.json`` names; ``python -m benchmarks.layered`` runs
all four workloads, both passes, and writes ``BENCH_layers.json``.
"""
