"""Benchmark for dagmix: fixed batch workloads, end-to-end and per-layer metrics."""
