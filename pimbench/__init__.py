"""Benchmark harness for the PIM-MMU simulator (see ``METRICS.md``)."""
