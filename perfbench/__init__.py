"""End-to-end and per-layer benchmark of the reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints its metrics; ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.  See ``README.md`` in
this directory.
"""
