"""End-to-end Chirper benchmark: six workloads, two clocks, per-layer attribution.

Run with ``python3 -m benchmarks.e2e`` from the repository root; see
``README.md`` beside this file for the metric, layer and interaction tables.
"""
