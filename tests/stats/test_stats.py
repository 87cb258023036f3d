"""Statistics utilities: histogram accuracy vs numpy, JFI, meters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.stats import LatencyHistogram, ThroughputMeter, jains_fairness_index


def test_histogram_basic_percentiles():
    hist = LatencyHistogram()
    for v in range(1, 101):
        hist.record(v * 1000)
    assert hist.count == 100
    assert hist.min_value == 1000
    assert hist.max_value == 100000
    # Log buckets: relative error bounded by 1/32.
    assert abs(hist.percentile(50) - 50000) / 50000 < 0.05
    assert abs(hist.percentile(99) - 99000) / 99000 < 0.05


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=10**9), min_size=10, max_size=2000),
    st.sampled_from([50, 90, 99, 99.9]),
)
def test_histogram_matches_numpy_within_bucket_error(values, pct):
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    ours = hist.percentile(pct)
    ref = float(np.percentile(values, pct, method="inverted_cdf"))
    # Bounded relative error from the log bucketing.
    assert ours <= ref * (1 + 1 / 16) + 1
    assert ours >= ref * (1 - 1 / 16) - 1


def test_histogram_merge():
    a = LatencyHistogram()
    b = LatencyHistogram()
    for v in [10, 20, 30]:
        a.record(v)
    for v in [40, 50]:
        b.record(v)
    a.merge(b)
    assert a.count == 5
    assert a.min_value == 10
    assert a.max_value == 50


def test_histogram_rejects_negative():
    hist = LatencyHistogram()
    with pytest.raises(ValueError):
        hist.record(-1)


def test_histogram_empty_percentile():
    assert LatencyHistogram().percentile(99) == 0


def test_histogram_summary_shape():
    hist = LatencyHistogram()
    for v in [100, 200, 300]:
        hist.record(v)
    mn, p50, p99, p9999, mx = hist.summary()
    assert mn == 100 and mx == 300
    assert mn <= p50 <= p99 <= p9999 <= mx * (1 + 1 / 16)


def test_jfi_perfect_and_skewed():
    assert jains_fairness_index([5, 5, 5, 5]) == 1.0
    skewed = jains_fairness_index([100, 1, 1, 1])
    assert skewed < 0.3
    assert jains_fairness_index([]) == 1.0
    assert jains_fairness_index([0, 0]) == 1.0


@given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=100))
def test_jfi_bounds(values):
    jfi = jains_fairness_index(values)
    assert 1.0 / len(values) - 1e-9 <= jfi <= 1.0 + 1e-9


def test_throughput_meter():
    sim = Simulator()
    meter = ThroughputMeter(sim)

    def gen(sim):
        for _ in range(10):
            yield sim.timeout(100)
            meter.record(nbytes=125)

    sim.process(gen(sim))
    sim.run()
    # 10 events, 1250 bytes over 1000 ns = 1e7 ops/s, 1e10 bps.
    assert meter.ops_per_sec == pytest.approx(1e7)
    assert meter.bits_per_sec == pytest.approx(1e10)
    meter.reset()
    assert meter.events == 0
