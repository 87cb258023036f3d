"""The layered benchmark (see perf/README.md)."""
