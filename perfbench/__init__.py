"""The repository benchmark: seeded workloads, end-to-end and per-layer
metrics.  Entry point: ``python3 perfbench/run.py`` (see README.md)."""
