"""Carousel flow scheduler: work conservation, pacing, fairness."""

from repro.flextoe import CarouselScheduler
from repro.flextoe.scheduler import INTERVAL_Q8_SHIFT, rate_to_interval_q8
from repro.nfp import Fpc
from repro.sim import Simulator, Store


def build(mss=1000, slot_ns=1000):
    sim = Simulator()
    ring = Store(sim)
    sched = CarouselScheduler(sim, ring.put, mss=mss, slot_ns=slot_ns)
    fpc = Fpc(sim, "sch")
    fpc.spawn(sched.program)
    return sim, ring, sched


def drain(ring):
    out = []
    while True:
        ok, item = ring.try_get()
        if not ok:
            return out
        out.append(item)


def test_uncongested_flow_round_robin():
    sim, ring, sched = build()
    sched.fs_update(1, 2500)
    sim.run(until=1_000_000)
    triggers = drain(ring)
    # 2500 bytes at mss 1000 -> 3 triggers (1000+1000+500).
    assert triggers == [1, 1, 1]
    assert sched.triggers_issued == 3


def test_multiple_flows_interleaved_fairly():
    sim, ring, sched = build()
    sched.fs_update(1, 3000)
    sched.fs_update(2, 3000)
    sim.run(until=1_000_000)
    triggers = drain(ring)
    assert triggers.count(1) == 3
    assert triggers.count(2) == 3
    # Round-robin: no flow gets two triggers in a row more than once.
    runs = sum(1 for a, b in zip(triggers, triggers[1:]) if a == b)
    assert runs <= 1


def test_fs_update_zero_dequeues_flow():
    sim, ring, sched = build()
    sched.fs_update(1, 5000)
    sim.run(until=10_000)
    sched.fs_update(1, 0)
    sim.run(until=1_000_000)
    drained = drain(ring)
    # The flow stops promptly after the zero refresh.
    assert len(drained) <= 5


def test_rate_limited_flow_paced_by_time_wheel():
    sim, ring, sched = build()
    # 1000 bytes per 100 us  (10 MB/s).
    sched.set_rate(1, 10_000_000)
    sched.fs_update(1, 10_000)
    arrivals = []

    def watcher(sim):
        while len(arrivals) < 5:
            item = yield ring.get()
            arrivals.append(sim.now)

    sim.process(watcher(sim))
    sim.run(until=2_000_000)
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    # mss=1000 at 10 MB/s -> 100 us between triggers.
    assert all(85_000 < gap < 120_000 for gap in gaps), gaps
    assert sched.rate_limited_enqueues > 0


def test_unlimited_after_rate_removed():
    sim, ring, sched = build()
    sched.set_rate(1, 10_000_000)
    sched.set_interval(1, 0)  # back to unlimited
    sched.fs_update(1, 3000)
    sim.run(until=50_000)
    assert len(drain(ring)) == 3  # burst, not paced


def test_remove_flow_stops_scheduling():
    sim, ring, sched = build()
    sched.fs_update(1, 100_000)
    sim.run(until=5_000)
    sched.remove_flow(1)
    before = sched.triggers_issued
    sim.run(until=1_000_000)
    assert sched.triggers_issued <= before + 2


def test_interval_conversion():
    # 1 GB/s -> 1 ns/byte -> Q8 = 256.
    assert rate_to_interval_q8(1_000_000_000) == 1 << INTERVAL_Q8_SHIFT
    assert rate_to_interval_q8(0) == 0
    # Very fast rates clamp to the minimum representable interval.
    assert rate_to_interval_q8(10**15) == 1


def test_wake_from_idle():
    sim, ring, sched = build()
    sim.run(until=100_000)  # scheduler idles
    sched.fs_update(7, 500)
    sim.run(until=200_000)
    assert drain(ring) == [7]
