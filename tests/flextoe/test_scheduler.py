"""Carousel flow scheduler: work conservation, pacing, fairness."""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flextoe import CarouselScheduler
from repro.flextoe.config import SCHED_DEQUEUE
from repro.flextoe.scheduler import INTERVAL_Q8_SHIFT, rate_to_interval_q8
from repro.nfp import Fpc
from repro.sim import Simulator, Store, Timeout
from repro.sim.core import PENDING
from tests.tools.judge import KernelHooks


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
    swept backwards from the current slot over the whole horizon; the next
    deadline is the least head of all."""

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

    def _pop_due(self):
        if self._rr:
            return self._rr.popleft(), None
        now = self.sim.now
        slot = (now // self.slot_ns) % self.n_slots
        for back in range(self.n_slots):
            bucket = self._wheel[(slot - back) % self.n_slots]
            if bucket and bucket[0][0] <= now:
                return bucket.popleft()[1], None
        heads = [bucket[0][0] for bucket in self._wheel if bucket]
        return None, min(heads) if heads else None


class _Clock:
    now = 0


def serve(sched):
    """One pass of the SCH program's loop body without its FPC charge and
    trigger: pop a due flow, take one burst, re-enqueue what remains; idle,
    the wheel's next deadline."""
    entry, deadline = sched._pop_due()
    if entry is None:
        return "idle", deadline
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
    return entry.conn_index, None


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


def _queued(slots):
    """Each populated slot's queue as (deadline, conn index) pairs."""
    return {slot: [(deadline, entry.conn_index) for deadline, entry in bucket] for slot, bucket in slots if bucket}


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
        assert all(wheel._wheel.values())  # no slot outlives its last entry
        assert _queued(wheel._wheel.items()) == _queued(enumerate(swept._wheel))


class _AnyOfIdle(CarouselScheduler):
    """The idle wait before the kernel's withdrawable timer: an event for
    the next FS update and a ``Timeout`` at the wheel's deadline, in an
    AnyOf; the member that loses stays in the heap and is dispatched into
    the fired condition (the oracle)."""

    def program(self, thread, _value=None):
        sim = self.sim
        while True:
            entry, deadline = self._pop_due()
            if entry is None:
                if deadline is None:
                    self._parked = thread
                    return thread.park(self._woken)
                self._wake = sim.event()
                return thread.wait(sim.any_of([self._wake, Timeout(sim, deadline - sim.now)]), self._woken)
            entry.queued = False
            if entry.deficit > 0:
                thread.work = entry
                return thread.charge(SCHED_DEQUEUE, self._dequeued)

    def _kick(self):
        parked = self._parked
        if parked is not None:
            self._parked = None
            parked.succeed()
            return
        wake = self._wake
        if wake is not None and wake._value is PENDING:
            wake.succeed()


class _Cases(CarouselScheduler):
    """The scheduler, noting which race each kick and kill of a sleeping
    SCH thread met: ``early`` (before the deadline), ``at`` (at it, the
    timer not yet run), ``after`` (the timer run, the thread not yet
    resumed), ``killed`` (a crash of the sleeping thread)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cases = set()

    def _kick(self):
        if self._wake is not None:
            timer, sim = self._timer, self.sim
            self.cases.add("early" if timer[0] > sim.now else "at" if timer in sim._heap else "after")
        super()._kick()


class _Pushing(Simulator):
    """A kernel that runs nothing in place (DESIGN §12 rule 3 off): every
    wait is an entry, so a timer that leaves the heap changes no other."""

    def _next_in_line(self, when, callback=None):
        return False


def _race(cls, ops, kernel):
    """Drive an SCH thread of ``cls`` through ``ops`` from a driver process
    on a ``kernel``; the dispatch transcript ((time, priority, seq) of each
    entry run, from the heap or the same-instant queue, but a Timeout run
    into a condition that had fired), the triggers taken, and the scheduler."""
    sim = kernel()
    ring = Store(sim)
    sched = cls(sim, ring.put, mss=1000, slot_ns=1000, n_slots=64)
    chain = Fpc(sim, "sch").run(sched.program)
    triggers = []

    def driver():
        for op in ops:
            if op[0] == "interval":
                sched.set_interval(op[1], op[2])
            elif op[0] == "fs":
                sched.fs_update(op[1], op[2])
            elif op[0] == "wait":
                yield sim.timeout(op[1])
            elif op[0] in ("at", "head"):  # a time, or the wheel's earliest deadline
                when = op[1] if op[0] == "at" else min((bucket[0][0] for bucket in sched._wheel.values()), default=0)
                if when > sim.now:
                    yield sim.timeout(when - sim.now)
            else:
                cases = getattr(sched, "cases", None)
                if cases is not None and sched._wake is not None:
                    cases.add("killed")
                chain.kill()

    def taker():
        while True:
            conn = yield ring.get()
            triggers.append((sim.now, conn))

    transcript = []

    def ran(entry, queued):
        event = entry[3]
        dead = isinstance(event, Timeout) and event.callbacks and all(
            getattr(callback, "__name__", None) == "_check" and callback.__self__.triggered
            for callback in event.callbacks)
        if not dead:
            transcript.append((entry[:3], queued))
        return entry

    sim.process(driver())
    sim.process(taker())
    with KernelHooks(heappop=lambda pop, heap: ran(pop(heap), False),
                     popleft=lambda popleft, queue: ran(popleft(queue), True)):
        sim.run(until=200_000)
    return transcript, triggers, sched


def _same_run(ops):
    """The races ``ops`` meets: the same dispatches but the dead timers'
    where nothing runs in place, the same triggers where rule 3 holds (a
    timer that left the heap may let a later wait run in place)."""
    oracle, oracle_triggers, _ = _race(_AnyOfIdle, ops, _Pushing)
    here, here_triggers, sched = _race(_Cases, ops, _Pushing)
    assert here == oracle and here_triggers == oracle_triggers
    _, oracle_triggers, _ = _race(_AnyOfIdle, ops, Simulator)
    assert _race(_Cases, ops, Simulator)[1] == oracle_triggers
    return sched.cases


# One rate-limited flow (1 ns/byte: a 1000 B burst a microsecond): the SCH
# thread sleeps on the wheel between bursts, and the other flow's FS updates
# race its timer.
_PACED = [("interval", 1, 1 << INTERVAL_Q8_SHIFT), ("fs", 1, 4000)]
_race_ops = st.lists(
    st.one_of(
        st.tuples(st.just("interval"), _conn, st.integers(0, 3).map(lambda k: k << INTERVAL_Q8_SHIFT)),
        st.tuples(st.just("fs"), _conn, st.integers(0, 4000)),
        st.tuples(st.just("wait"), st.integers(0, 3000)),
        st.tuples(st.just("at"), st.integers(0, 12_000)),
        st.just(("head",)),
        st.just(("kill",)),
    ),
    max_size=30,
).map(lambda ops: _PACED + ops)


def _first_deadline():
    """When the paced flow's SCH thread first sleeps until (the same in both)."""
    sim, _ring, sched = build()
    sched.set_interval(1, 1 << INTERVAL_Q8_SHIFT)
    sched.fs_update(1, 4000)
    while sched._wake is None:
        sim.run(until=sim.now + 1)
    return sched._timer[0]


def test_a_kick_before_the_deadline_withdraws_the_timer():
    assert _same_run(_PACED + [("wait", 300), ("fs", 2, 500)]) == {"early"}


def test_a_kick_at_the_deadline_leaves_the_timer_to_win():
    # The driver's timeout to the deadline is pushed before the SCH sleeps.
    assert "at" in _same_run(_PACED + [("at", _first_deadline()), ("fs", 2, 500)])


def test_a_kick_after_the_timer_ran_wakes_nothing_more():
    # Pushed once the SCH sleeps, the driver's timeout runs after the timer
    # and before the SCH's resume the timer queued.
    assert "after" in _same_run(_PACED + [("wait", 300), ("at", _first_deadline()), ("fs", 2, 500)])


def test_a_crash_while_sleeping_leaves_the_timer_as_it_left_the_any_of():
    assert "killed" in _same_run(_PACED + [("wait", 300), ("kill",), ("wait", 100), ("fs", 2, 500)])
    assert "killed" in _same_run(_PACED + [("wait", 300), ("kill",), ("fs", 1, 3000)])


@settings(max_examples=150, deadline=None)
@given(_race_ops)
def test_the_timer_dispatches_what_the_any_of_dispatched(ops):
    _same_run(ops)
