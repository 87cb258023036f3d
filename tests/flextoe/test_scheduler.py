"""Carousel flow scheduler: work conservation, pacing, fairness."""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flextoe import CarouselScheduler
from repro.flextoe.scheduler import INTERVAL_Q8_SHIFT, rate_to_interval_q8
from repro.nfp import Fpc
from repro.sim import Simulator, Store


def build(mss=1000, slot_ns=1000):
    sim = Simulator()
    ring = Store(sim)
    sched = CarouselScheduler(sim, ring.put, mss=mss, slot_ns=slot_ns)
    fpc = Fpc(sim, "sch")
    fpc.run(sched.program)
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


class _SweptWheel(CarouselScheduler):
    """Reference layout: one queue per slot, every slot built up front,
    swept backwards from the current slot over the whole horizon."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wheel = [deque() for _ in range(self.n_slots)]

    def _enqueue(self, entry):
        entry.queued = True
        if entry.interval_q8 == 0:
            self._rr.append(entry)
            return
        deadline = max(entry.next_deadline, self.sim.now)
        self._wheel[(deadline // self.slot_ns) % self.n_slots].append((deadline, entry))
        self._wheel_population += 1

    def _pop_due(self):
        if self._rr:
            return self._rr.popleft()
        now = self.sim.now
        slot = (now // self.slot_ns) % self.n_slots
        for back in range(self.n_slots):
            bucket = self._wheel[(slot - back) % self.n_slots]
            if bucket and bucket[0][0] <= now:
                self._wheel_population -= 1
                return bucket.popleft()[1]
        return None

    def _next_wheel_deadline(self):
        heads = [bucket[0][0] for bucket in self._wheel if bucket]
        return min(heads) if heads else None


class _Clock:
    now = 0


def serve(sched):
    """One pass of the SCH program's loop body without its FPC charge and
    trigger: pop a due flow, take one burst, re-enqueue what remains."""
    entry = sched._pop_due()
    if entry is None:
        return None
    entry.queued = False
    if entry.deficit > 0:
        burst = min(sched.mss, entry.deficit)
        entry.deficit -= burst
        if entry.deficit > 0:
            if entry.interval_q8 > 0:
                entry.next_deadline = max(entry.next_deadline, sched.sim.now) + (
                    (burst * entry.interval_q8) >> INTERVAL_Q8_SHIFT
                )
            sched._enqueue(entry)
    return entry.conn_index


_conn = st.integers(0, 3)
_ops = st.lists(
    st.one_of(
        # Up to 40 ns/byte: one 1000-byte burst moves a deadline 40 us,
        # five times round an 8-slot, 8 us wheel.
        st.tuples(st.just("interval"), _conn, st.integers(0, 40 << INTERVAL_Q8_SHIFT)),
        st.tuples(st.just("fs"), _conn, st.integers(0, 6000)),
        # Mostly within the horizon, so several past slots hold due heads.
        st.tuples(st.just("advance"), st.integers(0, 2500) | st.integers(0, 40_000)),
        st.just(("pop",)),
    ),
    min_size=20,
    max_size=80,
)

# Two due heads in past slots 1 and 2, popped from slot 3: the nearer one
# (slot 2) goes first, which neither a forward nor an index-order scan does.
_TWO_PAST_SLOTS = [
    ("interval", 0, 1 << INTERVAL_Q8_SHIFT), ("interval", 1, 1 << INTERVAL_Q8_SHIFT),
    ("advance", 1000), ("fs", 0, 500), ("advance", 1000), ("fs", 1, 500),
    ("advance", 1500), ("pop",), ("pop",),
]


@settings(max_examples=120, deadline=None)
@given(_ops)
@example(_TWO_PAST_SLOTS)
def test_wheel_of_populated_slots_pops_as_the_full_sweep_does(ops):
    clock = _Clock()
    wheel = CarouselScheduler(clock, None, mss=1000, slot_ns=1000, n_slots=8)
    swept = _SweptWheel(clock, None, mss=1000, slot_ns=1000, n_slots=8)
    for op in ops:
        if op[0] == "interval":
            for sched in (wheel, swept):
                sched.set_interval(op[1], op[2])
        elif op[0] == "fs":
            for sched in (wheel, swept):
                sched.fs_update(op[1], op[2])
        elif op[0] == "advance":
            clock.now += op[1]
        else:
            assert serve(wheel) == serve(swept)
        assert wheel._next_wheel_deadline() == swept._next_wheel_deadline()
        assert wheel._wheel_population == swept._wheel_population
        assert wheel._wheel_population == sum(len(bucket) for bucket in wheel._wheel.values())
        assert all(wheel._wheel.values())  # no slot outlives its last entry
        assert set(wheel._wheel) == {s for s, bucket in enumerate(swept._wheel) if bucket}
