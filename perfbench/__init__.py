"""Benchmark of the triso package; see README.md."""
