"""Benchmark of the ample engine; see README.md."""
