"""A put rides on the get it serves (DESIGN §12 rule 3): a ``put()`` into
a store with a parked get hands that get the item, is fired at once under
the sequence number its push would have had, and is dispatched by its
ride, the get's last callback — in place when nothing made during the
get's dispatch sorts before it and the run's target has not fired. The
run is the same run with fewer events: the reference is a kernel whose
puts are always pushed (plain ``succeed``), and each program is driven the
four ways a caller can drive the kernel."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.sim import Event, Interrupt, Simulator, Store, Timeout
from repro.sim.resources import Hold, Slots, StorePut
from tests.sim.test_in_place_wakes import _DRIVER, DRIVES


class PushedPut(StorePut):
    """A put as ``Store._settle`` makes it: its ``succeed`` pushes it."""

    __slots__ = ()

    def __init__(self, store, item):
        Event.__init__(self, store.sim)
        self.item = item
        store._put_queue.append(self)
        store._settle()


class PushedPuts(Store):
    def put(self, item):
        return PushedPut(self, item)


class CountedPut(StorePut):
    """The kernel's put, counting the rides it runs in place."""

    __slots__ = ()

    def _ride(self, get):
        StorePut._ride(self, get)
        self.sim.rides += self.callbacks is None


class CountedPuts(Store):
    def put(self, item):
        return CountedPut(self, item)


class CountingRides(Simulator):
    rides = 0


KERNELS = ((Simulator, PushedPuts), (CountingRides, CountedPuts))
_STORES = (1, None)  # capacities: one bounded, one not
_STORE = st.integers(0, len(_STORES) - 1)
_DELAY = st.integers(min_value=0, max_value=3)
_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("hold"), _DELAY),  # an engine hold on one issue slot
    st.tuples(st.just("put"), _STORE),  # yielded at once
    st.tuples(st.just("put-late"), _STORE, _DELAY),  # yielded after a sleep
    st.tuples(st.just("put-any"), _STORE, _DELAY),  # yielded in an AnyOf
    st.tuples(st.just("put-drop"), _STORE),  # never yielded
    st.tuples(st.just("get"), _STORE),
    st.tuples(st.just("deliver"), _STORE, _DELAY),  # by an engine step
    st.tuples(st.just("spawn"), _DELAY),  # a process started at now
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.just(("target",)),  # fires the run's target
)
_PROGRAM = st.lists(st.lists(_OP, max_size=6), min_size=1, max_size=5)
_TARGET_AT = st.integers(min_value=0, max_value=12)
_SLICES = st.lists(st.integers(min_value=0, max_value=16), max_size=6)


def transcript(kernels, program, target_at, drive, slices=()):
    """Run ``program`` on ``kernels`` under ``drive``; returns its
    ``(now, who, value)`` transcript and the simulator."""
    kernel, store_kind = kernels
    sim = kernel()
    slots = Slots(sim)
    stores = [store_kind(sim, capacity=k) for k in _STORES]
    target = sim.event()
    procs = []
    log = []

    def fire(who):
        if not target.triggered:
            target.succeed(who)

    def deliver(who, store):
        if store.is_full:
            log.append((sim.now, who, "refused"))
        else:
            store.deliver(who)

    def child(name, delay):
        log.append((sim.now, name, "started"))
        yield sim.timeout(delay)
        log.append((sim.now, name, "child"))

    def step(pid, index, op):
        kind = op[0]
        item = (pid, index)
        if kind == "sleep":
            return (yield sim.timeout(op[1], value=item))
        if kind == "hold":
            return (yield Hold(slots, op[1], op[1]))
        if kind == "put":
            return (yield stores[op[1]].put(item))
        if kind == "put-late":
            put = stores[op[1]].put(item)
            yield sim.timeout(op[2])
            return (yield put)
        if kind == "put-any":
            put = stores[op[1]].put(item)
            fired = yield sim.any_of([put, Timeout(sim, op[2])])
            return tuple(sorted("put" if event is put else "timeout" for event in fired))
        if kind == "put-drop":
            return stores[op[1]].put(item).triggered
        if kind == "get":
            return ("got", op[1], (yield stores[op[1]].get()))
        if kind == "deliver":
            sim._schedule(sim.now + op[2], lambda _step: deliver(item, stores[op[1]]))
            return "issued"
        if kind == "spawn":
            sim.process(child(item, op[1]))
            return "spawned"
        if kind == "interrupt":
            victim = procs[op[1]] if op[1] < len(procs) else None
            parked = victim is not None and victim.is_alive and victim._target is not None
            if parked and victim._resume_cb in (victim._target.callbacks or ()):
                victim.interrupt(item)
                return ("interrupted", op[1])
            return "no one"
        fire(pid)
        return "target"

    def body(pid, ops):
        for index, op in enumerate(ops):
            try:
                value = yield from step(pid, index, op)
            except Interrupt as interrupt:
                value = ("interrupt", interrupt.cause)
            log.append((sim.now, pid, value))

    sim._schedule(target_at, lambda _step: fire("timer"))
    for pid, ops in enumerate(program):
        procs.append(sim.process(body(pid, ops)))
    drive(sim, target, slices, log)
    return log, sim


@settings(max_examples=200, deadline=None)
@given(_PROGRAM, _TARGET_AT, _SLICES)
# The getter spawns a process: its start, URGENT at now, comes first.
@example([[("get", 0), ("spawn", 0)], [("put", 0)]], 5, [])
# The getter interrupts someone: the interrupt, URGENT at now, comes first.
@example([[("get", 1), ("interrupt", 2)], [("put", 1)], [("sleep", 3)]], 5, [])
# The getter fires the run's target: the run returns before the put.
@example([[("get", 0), ("target",)], [("put", 0), ("sleep", 1)]], 9, [])
# A putter interrupted while parked on its ride: the ride runs no one.
@example([[("get", 0)], [("sleep", 1), ("put", 0), ("sleep", 0)], [("sleep", 1), ("interrupt", 1)]], 5, [])
# A put yielded inside an AnyOf, one never yielded, one yielded late.
@example([[("get", 1)], [("put-drop", 1)], [("get", 0)], [("put-any", 0, 1)]], 5, [])
@example([[("get", 1), ("sleep", 0)], [("put-late", 1, 0), ("sleep", 0)]], 5, [1])
def test_rides_change_the_event_count_and_nothing_else(program, target_at, slices):
    runs = set()
    for drive in DRIVES:
        reference, pushed = transcript(KERNELS[0], program, target_at, drive, slices)
        observed, ridden = transcript(KERNELS[1], program, target_at, drive, slices)
        assert observed == reference, drive.__name__
        assert pushed.processed_events - ridden.processed_events == ridden.rides, drive.__name__
        runs.add(tuple(entry for entry in observed if entry[1] != _DRIVER))
    assert len(runs) == 1  # one run, however it was driven


def test_a_put_to_a_parked_get_is_not_an_event():
    sim = Simulator()
    store = Store(sim)
    seen = []

    def getter():
        seen.append((yield store.get()))

    def putter():
        yield Timeout(sim, 4)
        seen.append((yield store.put("item")))
        seen.append(sim.now)

    sim.process(getter())
    sim.process(putter())
    sim.run()
    # Two starts, the putter's timeout and the get: the put rode on the get.
    assert seen == ["item", None, 4] and sim.processed_events == 4
    assert store.max_occupancy == 1


def test_a_waiter_added_after_the_ride_raises_under_the_sanitizer(sanitized):
    # Unchecked, the ride would dispatch the put before that waiter runs.
    sim = Simulator()
    store = Store(sim)
    get = store.get()  # made outside a process: parked
    store.put("item")
    get.callbacks.append(lambda _get: None)
    with pytest.raises(SanitizerError, match="waiter was added after it"):
        sim.run()
