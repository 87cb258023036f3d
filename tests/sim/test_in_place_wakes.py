"""Wakes run in place (DESIGN §12 rule 3): an engine step whose last act
wakes a waiter (``Simulator._wake``: a DMA done, a doorbell;
``Store.deliver``: a frame arriving at a parked get) runs the woken
event's callbacks there and then when its push would have been the very
next dispatch. The run is the same run with fewer events: the reference
is a kernel whose ``_wake`` is ``succeed`` and whose stores' ``deliver``
is ``try_put``, so every wake is pushed and dispatched, and each program
is driven the four ways a caller can drive the kernel."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.sim import Resource, SimulationError, Simulator, Store, Timeout


class PushedWakes(Simulator):
    """Every wake goes through the heap."""

    def _wake(self, event, value=None):
        event.succeed(value)


class TryPutStore(Store):
    def deliver(self, item):
        assert self.try_put(item)


class CountingWakes(Simulator):
    """The kernel as it is, counting the wakes it runs in place."""

    wakes = 0

    def _wake(self, event, value=None):
        Simulator._wake(self, event, value)
        self.wakes += event.callbacks is None


KERNELS = ((PushedWakes, TryPutStore), (CountingWakes, Store))
_STORES = (1, None)  # capacities: one bounded, one not
_N_GATES = 3
_DELAY = st.integers(min_value=0, max_value=3)
# An engine operation: its first step is pushed where it is issued, each
# later one follows under rule 3's test (``_after``), and the last does
# one thing and then wakes something as its last act.
_BEFORE = st.one_of(
    st.just(("nothing",)),
    st.tuples(st.just("due"), _DELAY),  # a timeout pushed: due at now if 0
    st.tuples(st.just("open"), st.integers(0, _N_GATES - 1)),  # a plain succeed
)
_WAKE = st.one_of(
    st.tuples(st.just("wake"), st.integers(0, _N_GATES - 1)),
    st.tuples(st.just("deliver"), st.integers(0, len(_STORES) - 1)),
)
_ENGINE_OP = st.tuples(st.lists(_DELAY, min_size=1, max_size=3), _BEFORE, _WAKE)
_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("hold"), _DELAY),
    st.tuples(st.just("put"), st.integers(0, len(_STORES) - 1)),
    st.tuples(st.just("get"), st.integers(0, len(_STORES) - 1), _DELAY),
    st.tuples(st.just("wait"), st.integers(0, _N_GATES - 1)),
    st.tuples(st.just("open"), st.integers(0, _N_GATES - 1)),
    st.just(("target", 0)),
    st.tuples(st.just("issue"), _ENGINE_OP),
)
_PROGRAM = st.lists(st.lists(_OP, max_size=6), min_size=1, max_size=5)
_ENGINE = st.lists(_ENGINE_OP, max_size=4)
# What fires the run's target: the last step of an operation issued at
# the start, which settles it and then wakes something else, or wakes it.
_TARGET = st.tuples(st.lists(_DELAY, min_size=1, max_size=3), st.booleans(), _WAKE)
_SLICES = st.lists(st.integers(min_value=0, max_value=16), max_size=6)
_DRIVER = "driver"


def _by_step(sim, _target, _slices, _log):
    while sim.peek() is not None:
        sim.step()


def _by_run(sim, _target, _slices, _log):
    sim.run()


def _by_slices(sim, _target, slices, log):
    for horizon in slices:  # any order; a horizon in the past is skipped
        if horizon >= sim.now:
            sim.run(until=horizon)
            assert sim.now == horizon
            log.append((sim.now, _DRIVER, "horizon"))
    sim.run()


def _by_event(sim, target, _slices, log):
    sim.run(until=target)
    log.append((sim.now, _DRIVER, "target"))
    sim.run()


DRIVES = (_by_step, _by_run, _by_slices, _by_event)


def transcript(kernels, program, engine_ops, target_op, drive, slices=()):
    """Run ``program`` on ``kernels`` under ``drive``; returns its
    ``(now, who, value)`` transcript and the simulator."""
    kernel, store_kind = kernels
    sim = kernel()
    slot = Resource(sim)
    stores = [store_kind(sim, capacity=k) for k in _STORES]
    gates = [sim.event() for _ in range(_N_GATES)]
    target = sim.event()
    log = []
    items = iter(range(1_000))

    def wake(who, kind, arg):
        if kind == "wake":
            if gates[arg].triggered:
                log.append((sim.now, who, ("already woken", arg)))
            else:
                sim._wake(gates[arg], (who, arg))
        elif kind == "deliver":
            if stores[arg].is_full:
                log.append((sim.now, who, ("refused", arg)))
            else:
                stores[arg].deliver((who, next(items)))
        elif not target.triggered:
            sim._wake(target, who)

    def issue(who, op, fires_target=False):
        delays, before, (kind, arg) = op

        def last(_step):
            log.append((sim.now, who, ("step", before)))
            if before[0] == "due":
                Timeout(sim, before[1]).callbacks.append(lambda _e: log.append((sim.now, who, "due")))
            elif before[0] == "open" and not gates[before[1]].triggered:
                gates[before[1]].succeed((who, "opened"))
            if fires_target:  # pushed only if someone waits on it
                target.settle(who)
            wake(who, kind, arg)

        def then(delay, later):
            return lambda _step: sim._after(delay, later)

        step = last
        for delay in reversed(delays[1:]):
            step = then(delay, step)
        sim._schedule(sim.now + delays[0], step)

    def step(pid, index, op):
        kind, arg = op[0], op[1]
        if kind == "sleep":
            return (yield sim.timeout(arg, value=(pid, index)))
        if kind == "hold":
            with (yield slot.request()):
                yield sim.timeout(arg)
            return "held"
        if kind == "put":
            yield stores[arg].put((pid, index))
            return ("put", arg)
        if kind == "get":
            item = yield stores[arg].get()
            log.append((sim.now, pid, ("got", arg, item)))
            return (yield sim.timeout(op[2], value="after get"))
        if kind == "wait":
            return (yield gates[arg])
        if kind == "open":
            if not gates[arg].triggered:
                gates[arg].succeed(pid)
            return ("opened", arg)
        if kind == "target":
            return (yield target)
        issue(pid, arg)
        return "issued"

    def body(pid, ops):
        for index, op in enumerate(ops):
            value = yield from step(pid, index, op)
            log.append((sim.now, pid, value))

    delays, settles, (kind, arg) = target_op
    issue("target", (delays, ("nothing",), (kind, arg) if settles else ("target", None)), fires_target=settles)
    for n, op in enumerate(engine_ops):
        issue("engine%d" % n, op)
    for pid, ops in enumerate(program):
        sim.process(body(pid, ops))
    drive(sim, target, slices, log)
    return log, sim


@settings(max_examples=200, deadline=None)
@given(_PROGRAM, _ENGINE, _TARGET, _SLICES)
# Something due at the waker's instant: a timeout it pushed first runs first.
@example([[("wait", 0)]], [([1], ("due", 0), ("wake", 0))], ([5], False, ("wake", 1)), [])
# A deadline at the waker's instant: the run would dispatch the wake before
# it returns, so it runs in place.
@example([[("get", 0, 1), ("wait", 1)]], [([2], ("nothing",), ("deliver", 0))], ([4], False, ("wake", 1)), [2])
# The run's target fired by the waker's own dispatch, with nothing pushed:
# the run ends with that dispatch, so the wake after it is pushed.
@example([[("wait", 0)]], [], ([3], True, ("wake", 0)), [])
# The run's target is the woken event: pushed, its waiter resumes after the
# run returns.
@example([[("target", 0)]], [], ([1, 2], False, ("wake", 0)), [])
# A full store with a put blocked on it refuses the delivery.
@example([[("put", 0), ("put", 0)], [("sleep", 2), ("get", 0, 0), ("get", 0, 1)]],
         [([1], ("nothing",), ("deliver", 0))], ([2], True, ("deliver", 0)), [1])
def test_in_place_wakes_change_the_event_count_and_nothing_else(program, engine_ops, target_op, slices):
    runs = set()
    for drive in DRIVES:
        reference, pushed = transcript(KERNELS[0], program, engine_ops, target_op, drive, slices)
        observed, woken = transcript(KERNELS[1], program, engine_ops, target_op, drive, slices)
        assert observed == reference, drive.__name__
        assert pushed.processed_events - woken.processed_events == woken.wakes, drive.__name__
        runs.add(tuple(entry for entry in observed if entry[1] != _DRIVER))
    assert len(runs) == 1  # one run, however it was driven


def test_a_completion_wakes_its_waiter_without_an_event():
    sim = Simulator()
    done = sim.event()
    seen = []

    def waiter():
        seen.append((yield done))
        seen.append(sim.now)

    sim.process(waiter())
    sim._schedule(7, lambda _step: sim._wake(done, "done"))
    sim.run()
    assert seen == ["done", 7] and sim.processed_events == 2  # the start and the step


def test_a_wake_between_runs_is_pushed():
    # Nothing is being dispatched: the waiter resumes in the next run, not
    # inside the caller.
    sim = Simulator()
    store = Store(sim)
    seen = []

    def taker():
        seen.append((yield store.get()))

    sim.process(taker())
    sim.run()
    store.deliver("frame")
    assert seen == []
    sim.run()
    assert seen == ["frame"] and sim.processed_events == 2


def test_a_wake_refuses_a_fired_event_and_a_full_store():
    sim = Simulator()
    event = sim.event().succeed()
    with pytest.raises(SimulationError, match="already triggered"):
        sim._wake(event)
    store = Store(sim, capacity=1)
    store.deliver("one")
    with pytest.raises(SimulationError, match="full store"):
        store.deliver("two")


def test_a_wake_from_a_process_raises_under_the_sanitizer(sanitized):
    # Unchecked, the waiter would resume inside the process still running.
    sim = Simulator()
    gate = sim.event()

    def waiter():
        yield gate

    def waker():
        yield Timeout(sim, 1)
        sim._wake(gate)

    sim.process(waiter())
    sim.process(waker(), name="waker")
    with pytest.raises(SanitizerError, match="in place at 1 from inside process 'waker'"):
        sim.run()


def test_a_push_after_an_in_place_wake_raises_under_the_sanitizer(sanitized):
    # Unchecked, the timeout would be made after what the waiter made.
    sim = Simulator()
    gate = sim.event()

    def waiter():
        yield gate

    def step(_step):
        sim._wake(gate)
        Timeout(sim, 0)

    sim.process(waiter())
    sim._schedule(3, step)
    with pytest.raises(SanitizerError, match="pushed .* at 3 after a wake it ran in place"):
        sim.run()


def test_a_push_after_a_pushed_wake_or_between_runs_passes_the_sanitizer(sanitized):
    sim = Simulator()
    gates = [sim.event(), sim.event()]

    def waiter(gate):
        yield gate

    def step(_step):
        Timeout(sim, 0)  # due now: the wake below is pushed behind it
        sim._wake(gates[0])
        Timeout(sim, 1)

    for gate in gates:
        sim.process(waiter(gate))
    sim._schedule(3, step)
    sim._schedule(5, lambda _step: sim._wake(gates[1]))
    sim.run()
    Timeout(sim, 2)  # the run that woke in place last has returned
    sim.run()
    assert sim.now == 7
