"""Unit tests for clock conversion, the tracepoint records, and RNG pools."""

import pytest

from repro.flextoe.tracing import TracepointRegistry
from repro.sim import CYCLES_2GHZ, CYCLES_800MHZ, Clock, RngPool, ns_to_us, us_to_ns


def test_800mhz_cycle_duration():
    # 1 cycle at 800 MHz = 1.25 ns -> rounds up to 2 ns per single cycle,
    # but 8 cycles = exactly 10 ns.
    assert CYCLES_800MHZ.cycles_to_ns(8) == 10
    assert CYCLES_800MHZ.cycles_to_ns(800) == 1000


def test_2ghz_cycle_duration():
    assert CYCLES_2GHZ.cycles_to_ns(2) == 1
    assert CYCLES_2GHZ.cycles_to_ns(2000) == 1000


def test_rounding_never_optimistic():
    clock = Clock(3_000_000_000)  # 1 cycle = 0.333.. ns
    assert clock.cycles_to_ns(1) == 1
    assert clock.cycles_to_ns(3) == 1
    assert clock.cycles_to_ns(4) == 2


def test_ns_to_cycles_inverse():
    assert CYCLES_800MHZ.ns_to_cycles(1000) == 800
    assert CYCLES_2GHZ.ns_to_cycles(1000) == 2000


def test_invalid_frequency_rejected():
    with pytest.raises(ValueError):
        Clock(0)


def test_us_ns_roundtrip():
    assert us_to_ns(1.5) == 1500
    assert ns_to_us(2500) == 2.5


def test_trace_disabled_records_nothing():
    trace = TracepointRegistry(enabled=False)
    trace.hit(0, "pre", "rx.segment")
    assert trace.records == []


def test_trace_filter_and_count():
    trace = TracepointRegistry(enabled=True)
    trace.hit(1, "proto", "ack.sent")
    trace.hit(2, "proto", "rx.ooo_drop")
    trace.hit(3, "pre", "ack.sent")
    assert trace.count(source="proto") == 2
    assert trace.count("ack.sent") == 2
    assert trace.count("ack.sent", source="pre") == 1


def test_trace_limit_drops():
    trace = TracepointRegistry(enabled=True, limit=2)
    for i in range(5):
        trace.hit(i, "pre", "rx.segment")
    assert len(trace.records) == 2
    assert trace.dropped == 3


def test_rng_streams_independent_and_reproducible():
    pool_a = RngPool(seed=7)
    pool_b = RngPool(seed=7)
    xs = [pool_a.stream("loss").random() for _ in range(5)]
    ys = [pool_b.stream("loss").random() for _ in range(5)]
    assert xs == ys
    zs = [pool_a.stream("workload").random() for _ in range(5)]
    assert xs != zs


def test_rng_different_seeds_differ():
    a = RngPool(seed=1).stream("x").random()
    b = RngPool(seed=2).stream("x").random()
    assert a != b
