"""Experiment harness: testbed construction and paper-style reporting."""

from repro.harness.testbed import STACKS, FlexToeHost, Testbed, build_host
from repro.harness.report import Table, format_rate, format_us

__all__ = ["STACKS", "FlexToeHost", "Table", "Testbed", "build_host", "format_rate", "format_us"]
