"""Seeded build / serve / refresh benchmark of the index and query engine.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 12 --trace 0

See ``perfbench/run.py`` for the workloads and ``BENCHMARK.json`` for the
metrics each one reports.
"""
