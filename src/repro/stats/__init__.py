"""Measurement utilities: latency histograms, throughput meters, fairness."""

from repro.stats.fairness import jains_fairness_index
from repro.stats.histogram import LatencyHistogram
from repro.stats.meters import GoodputMeter, ThroughputMeter

__all__ = [
    "GoodputMeter",
    "LatencyHistogram",
    "ThroughputMeter",
    "jains_fairness_index",
]
