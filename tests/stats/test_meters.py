"""ThroughputMeter / GoodputMeter edge cases."""

import pytest

from repro.sim import Simulator
from repro.stats import ThroughputMeter


def _advance(sim, ns):
    def waiter():
        yield sim.timeout(ns)

    sim.process(waiter())
    sim.run()


def test_meter_elapsed_never_zero():
    # A meter read at its own start time must not divide by zero.
    meter = ThroughputMeter(Simulator())
    assert meter.elapsed_ns == 1
    assert meter.ops_per_sec == 0
    assert meter.bits_per_sec == 0


def test_meter_reset_restarts_window():
    sim = Simulator()
    meter = ThroughputMeter(sim)
    _advance(sim, 500)
    meter.record(100)
    meter.reset()
    assert meter.started_at == 500
    assert meter.events == 0
    assert meter.bytes == 0
    _advance(sim, 250)
    meter.record(125)
    assert meter.elapsed_ns == 250
    assert meter.ops_per_sec == pytest.approx(1e9 / 250)
    assert meter.bits_per_sec == pytest.approx(125 * 8 * 1e9 / 250)


def test_meter_rejects_unknown_attributes():
    # __slots__ guard: typos must fail loudly, not create dict entries.
    meter = ThroughputMeter(Simulator())
    with pytest.raises(AttributeError):
        meter.eventz = 1


# -- GoodputMeter: benign-only accounting under mixed load ----------------


def test_goodput_counts_only_benign_bytes():
    from repro.stats import GoodputMeter

    sim = Simulator()
    meter = GoodputMeter(sim)
    _advance(sim, 1_000)
    meter.record(1000, benign=True)
    meter.record(4000, benign=False)  # attack bytes that got through
    meter.record(500, benign=True)
    assert meter.benign_bytes == 1500
    assert meter.attack_bytes == 4000
    assert meter.benign_ops == 2
    assert meter.attack_ops == 1
    # The headline number is benign-only: hostile delivery never
    # inflates goodput, no matter the mix ratio.
    assert meter.goodput_bps == pytest.approx(1500 * 8 * 1e9 / 1_000)
    assert meter.offered_bytes == 5500


def test_goodput_elapsed_never_zero():
    from repro.stats import GoodputMeter

    meter = GoodputMeter(Simulator())
    assert meter.goodput_bps == 0
