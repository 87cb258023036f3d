"""The same-instant queue (DESIGN §12 rule 3): an entry made for ``now`` at
NORMAL priority — a ``succeed`` (a wake, a woken get, a put handed to a
parked get), a ``Timeout(0)``, a slot's turn — joins ``Simulator._queue``
instead of the heap, and at the end of each dispatch the queue and the
heap are read as one sorted stream while the run's target has not fired:
the queue's head runs there, uncounted, and a heap entry that sorts
before it runs first, counted. The run is the same run with fewer
events: the reference is the kernel with its queue rebound to push every
entry on the heap under its key, and each program is driven the three
ways a caller can drive the kernel (``tests/sim/drives.py``)."""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.sim import Interrupt, Resource, SimulationError, Simulator, Store, Timeout
from repro.sim.core import NORMAL, PENDING, _Queue
from repro.sim.resources import Hold, Slots
from tests.sim.drives import DRIVES, unmarked


class _Pushed(_Queue):
    """Every entry pushed on the heap under its key: the queue stays empty."""

    __slots__ = ()

    def append(self, entry):
        heapq.heappush(self.sim._heap, entry)


class _Counted(_Queue):
    __slots__ = ()

    def popleft(self):
        self.sim.queued += 1
        return super().popleft()


class HeapOnly(Simulator):
    """The kernel as it was: every entry goes through the heap."""

    queued = 0

    def __init__(self):
        super().__init__()
        self._queue = _Pushed()
        self._queue.sim = self


class CountingQueue(Simulator):
    """The kernel as it is, counting the entries it runs from the queue."""

    queued = 0

    def __init__(self):
        super().__init__()
        self._queue = _Counted()
        self._queue.sim = self


_STORES = (1, None)  # capacities: one bounded, one not
_STORE = st.integers(0, len(_STORES) - 1)
_N_GATES = 3
_GATE = st.integers(0, _N_GATES - 1)
_DELAY = st.integers(min_value=0, max_value=3)
# An engine operation: its first step is pushed where it is issued, each
# later one follows under rule 3's test (``_after``), and the last does
# one thing and then wakes something.
_BEFORE = st.one_of(
    st.just(("nothing",)),
    st.tuples(st.just("due"), _DELAY),  # a timeout made: queued if 0
    st.tuples(st.just("open"), _GATE),  # a plain succeed
)
_WAKE = st.one_of(
    st.tuples(st.just("wake"), _GATE),
    st.tuples(st.just("deliver"), _STORE),
    st.just(("target", None)),
)
_ENGINE_OP = st.tuples(st.lists(_DELAY, min_size=1, max_size=3), _BEFORE, _WAKE)
_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("grant"), _DELAY),  # a request on one resource, held a while
    st.tuples(st.just("hold"), _DELAY),  # an engine hold on one issue slot
    st.tuples(st.just("put"), _STORE),  # yielded at once
    st.tuples(st.just("put-late"), _STORE, _DELAY),  # yielded after a sleep
    st.tuples(st.just("put-any"), _STORE, _DELAY),  # yielded in an AnyOf
    st.tuples(st.just("put-drop"), _STORE),  # never yielded
    st.tuples(st.just("get"), _STORE),
    st.tuples(st.just("wait"), _GATE),
    st.tuples(st.just("open"), _GATE),
    st.tuples(st.just("issue"), _ENGINE_OP),
    st.tuples(st.just("spawn"), _DELAY),  # a process started URGENT at now
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.just(("await",)),  # waits on the run's target
    st.just(("target",)),  # fires it
)
_PROGRAM = st.lists(st.lists(_OP, max_size=6), min_size=1, max_size=5)
_TARGET_AT = st.integers(min_value=0, max_value=12)
_SLICES = st.lists(st.integers(min_value=0, max_value=16), max_size=6)

def transcript(kernel, program, target_at, drive, slices=()):
    """Run ``program`` on ``kernel`` under ``drive``; returns its
    ``(now, who, value)`` transcript and the simulator."""
    sim = kernel()
    resource = Resource(sim)
    slots = Slots(sim)
    stores = [Store(sim, capacity=k) for k in _STORES]
    gates = [sim.event() for _ in range(_N_GATES)]
    target = sim.event()
    procs = []
    log = []
    items = iter(range(1_000))

    def fire(who):
        if not target.triggered:
            target.succeed(who)

    def wake(who, kind, arg):
        if kind == "wake":
            if gates[arg].triggered:
                log.append((sim.now, who, ("already woken", arg)))
            else:
                gates[arg].succeed((who, arg))
        elif kind == "deliver":
            if stores[arg].is_full:
                log.append((sim.now, who, ("refused", arg)))
            else:
                stores[arg].deliver((who, next(items)))
        else:
            fire(who)

    def issue(who, op):
        delays, before, (kind, arg) = op

        def last(_step):
            log.append((sim.now, who, ("step", before)))
            if before[0] == "due":
                Timeout(sim, before[1]).callbacks.append(lambda _e: log.append((sim.now, who, "due")))
            elif before[0] == "open" and not gates[before[1]].triggered:
                gates[before[1]].succeed((who, "opened"))
            wake(who, kind, arg)

        def then(delay, later):
            return lambda _step: sim._after(delay, later)

        step = last
        for delay in reversed(delays[1:]):
            step = then(delay, step)
        sim._schedule(sim.now + delays[0], step)

    def child(name, delay):
        log.append((sim.now, name, "started"))
        yield sim.timeout(delay)
        log.append((sim.now, name, "child"))

    def step(pid, index, op):
        kind = op[0]
        item = (pid, index)
        if kind == "sleep":
            return (yield sim.timeout(op[1], value=item))
        if kind == "grant":
            with (yield resource.request()):
                log.append((sim.now, pid, "granted"))
                yield sim.timeout(op[1])
            return "released"
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
        if kind == "wait":
            return (yield gates[op[1]])
        if kind == "open":
            if not gates[op[1]].triggered:
                gates[op[1]].succeed(item)
            return ("opened", op[1])
        if kind == "issue":
            issue(item, op[1])
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
        if kind == "await":
            return (yield target)
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


def _same_run_fewer_events(program, target_at, slices):
    runs = set()
    for drive in DRIVES:
        reference, pushed = transcript(HeapOnly, program, target_at, drive, slices)
        observed, queued = transcript(CountingQueue, program, target_at, drive, slices)
        assert observed == reference, drive.__name__
        assert pushed.processed_events - queued.processed_events == queued.queued, drive.__name__
        runs.add(unmarked(observed))
    assert len(runs) == 1  # one run, however it was driven


@settings(max_examples=250, deadline=None)
@given(_PROGRAM, _TARGET_AT, _SLICES)
# Holds on a busy slot: each turn is queued where the slot is handed on.
@example([[("hold", 2), ("hold", 0)], [("hold", 1), ("sleep", 0)], [("hold", 0), ("open", 0)]], 3, [])
def test_the_queue_changes_the_event_count_and_nothing_else(program, target_at, slices):
    _same_run_fewer_events(program, target_at, slices)


# Wakes: gates opened by processes and by engine steps, deliveries, and
# the run's target woken by a step.
_WAKE_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("hold"), _DELAY),
    st.tuples(st.just("put"), _STORE),
    st.tuples(st.just("get"), _STORE),
    st.tuples(st.just("wait"), _GATE),
    st.tuples(st.just("open"), _GATE),
    st.tuples(st.just("issue"), _ENGINE_OP),
    st.just(("await",)),
    st.just(("target",)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_WAKE_OP, max_size=6), min_size=1, max_size=5), _TARGET_AT, _SLICES)
# Something due at the waker's instant: a timeout it made first runs first.
@example([[("wait", 0), ("issue", ([1], ("due", 0), ("wake", 0)))]], 5, [])
# A deadline at the waker's instant: the run dispatches the wake before it returns.
@example([[("get", 0), ("wait", 1)], [("issue", ([2], ("nothing",), ("deliver", 0)))]], 6, [2])
# The run's target is the woken event: its waiters resume after the run returns.
@example([[("await",)], [("issue", ([1, 2], ("nothing",), ("target", None)))]], 9, [])
# A full store with a put blocked on it refuses the delivery.
@example([[("put", 0), ("put", 0)], [("sleep", 2), ("get", 0), ("get", 0)],
          [("issue", ([1], ("nothing",), ("deliver", 0)))]], 2, [1])
def test_queued_wakes_change_the_event_count_and_nothing_else(program, target_at, slices):
    _same_run_fewer_events(program, target_at, slices)


# Puts: to a parked get and not, yielded at once, late, in an AnyOf or
# never, beside URGENT spawns and interrupts made by the woken getter.
_PUT_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("hold"), _DELAY),
    st.tuples(st.just("put"), _STORE),
    st.tuples(st.just("put-late"), _STORE, _DELAY),
    st.tuples(st.just("put-any"), _STORE, _DELAY),
    st.tuples(st.just("put-drop"), _STORE),
    st.tuples(st.just("get"), _STORE),
    st.tuples(st.just("issue"), st.tuples(st.lists(_DELAY, min_size=1, max_size=3),
                                          st.just(("nothing",)), st.tuples(st.just("deliver"), _STORE))),
    st.tuples(st.just("spawn"), _DELAY),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.just(("target",)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_PUT_OP, max_size=6), min_size=1, max_size=5), _TARGET_AT, _SLICES)
# A getter spawns a process: its start, URGENT at now, runs before the put.
@example([[("get", 0), ("spawn", 0)], [("put", 0)]], 5, [])
# A getter interrupts someone: the interrupt, URGENT at now, comes first.
@example([[("get", 1), ("interrupt", 2)], [("put", 1)], [("sleep", 3)]], 5, [])
# A getter fires the run's target: the run returns before the put.
@example([[("get", 0), ("target",)], [("put", 0), ("sleep", 1)]], 9, [])
# A putter interrupted while parked on its put: the put runs no one.
@example([[("get", 0)], [("sleep", 1), ("put", 0), ("sleep", 0)], [("sleep", 1), ("interrupt", 1)]], 5, [])
# A put yielded inside an AnyOf, one never yielded, one yielded late.
@example([[("get", 1)], [("put-drop", 1)], [("get", 0)], [("put-any", 0, 1)]], 5, [])
@example([[("get", 1), ("sleep", 0)], [("put-late", 1, 0), ("sleep", 0)]], 5, [1])
def test_queued_puts_change_the_event_count_and_nothing_else(program, target_at, slices):
    _same_run_fewer_events(program, target_at, slices)


def test_a_completion_wakes_its_waiter_without_an_event():
    sim = Simulator()
    done = sim.event()
    seen = []

    def waiter():
        seen.append((yield done))
        seen.append(sim.now)

    sim.process(waiter())
    sim._schedule(7, lambda _step: done.succeed("done"))
    sim.run()
    assert seen == ["done", 7] and sim.processed_events == 2  # the start and the step


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
    # Two starts and the putter's timeout: the get and the put were queued.
    assert seen == ["item", None, 4] and sim.processed_events == 3
    assert store.max_occupancy == 1


def test_an_entry_made_between_runs_is_pushed():
    # Nothing is being dispatched: the waiter resumes in the next run, not
    # inside the caller, and that run counts the entry.
    sim = Simulator()
    store = Store(sim)
    seen = []

    def taker():
        seen.append((yield store.get()))

    sim.process(taker())
    sim.run()
    store.deliver("frame")
    assert seen == [] and sim.peek() == sim.now
    sim.run()
    assert seen == ["frame"] and sim.processed_events == 2


def test_a_heap_entry_due_first_runs_before_the_queue():
    # The timeout made for 3 after the step at 3 sorts before what that
    # step queues: it runs first, counted, and the queue stays the queue.
    sim = Simulator()
    log = []
    gate = sim.event()
    gate.callbacks.append(lambda _event: log.append("gate"))
    sim._schedule(3, lambda _step: gate.succeed())
    Timeout(sim, 3).callbacks.append(lambda _event: log.append("timeout"))
    sim.run()
    assert log == ["timeout", "gate"] and sim.processed_events == 2


def _urgent_mid_queue(sim, log):
    """A step at 3 wakes two waiters through the queue; the first starts a
    process and interrupts a sleeper, both URGENT at 3."""
    gates = [sim.event(), sim.event()]

    def sleeper():
        try:
            yield Timeout(sim, 10)
        except Interrupt as interrupt:
            log.append((sim.now, "interrupted", interrupt.cause))

    def child():
        log.append((sim.now, "child"))
        yield from ()

    def first():
        yield gates[0]
        log.append((sim.now, "first"))
        sim.process(child())
        victim.interrupt("first")

    def second():
        yield gates[1]
        log.append((sim.now, "second"))

    def step(_step):
        log.append((sim.now, "step"))
        for gate in gates:
            gate.succeed()

    sim.process(first())
    sim.process(second())
    victim = sim.process(sleeper())
    sim._schedule(3, step)


def _interleaved(sim, log):
    """A step at 3 wakes three waiters through the queue. A timeout made at
    0 for 3 sorts before all the step queues, a process started at 3 before
    the rest of it, and the end of a hold of no time, pushed at 3 under a
    key above the queue's, after what the queue holds by then."""
    slots = Slots(sim)
    gates = [sim.event() for _ in range(3)]

    def child():
        log.append((sim.now, "child"))
        yield from ()

    def holder():
        yield gates[0]
        log.append((sim.now, "holder"))
        sim.process(child())
        yield Hold(slots, 0, 0)
        log.append((sim.now, "held"))

    def opener():
        yield gates[1]
        log.append((sim.now, "opener"))
        gates[2].succeed()

    def last():
        yield gates[2]
        log.append((sim.now, "last"))

    def step(_step):
        log.append((sim.now, "step"))
        gates[0].succeed()
        gates[1].succeed()

    for body in (holder, opener, last):
        sim.process(body())
    sim._schedule(3, step)
    Timeout(sim, 3).callbacks.append(lambda _event: log.append((sim.now, "timeout")))


def _scenario(build, kernel):
    sim, log = kernel(), []
    build(sim, log)
    sim.run()
    return log, sim


def test_an_urgent_entry_made_mid_queue_runs_before_the_rest():
    # The start and the interrupt sort before the second wake: each runs,
    # counted, between the two wakes, which run from the queue.
    log, sim = _scenario(_urgent_mid_queue, CountingQueue)
    assert log == [(3, "step"), (3, "first"), (3, "child"), (3, "interrupted", "first"), (3, "second")]
    # Three starts, the step, the child's start, the interrupt, the
    # sleeper's timeout at 10 (it wakes no one).
    assert (sim.processed_events, sim.queued) == (7, 2)
    reference, pushed = _scenario(_urgent_mid_queue, HeapOnly)
    assert reference == log and pushed.processed_events == 7 + 2


def test_heap_entries_at_now_interleave_with_the_queue_by_key(sanitized):
    # Under the sanitizer, a heap entry that does not sort before the
    # queue's head, dispatched before it, raises.
    log, sim = _scenario(_interleaved, CountingQueue)
    assert log == [(3, "step"), (3, "timeout"), (3, "holder"), (3, "child"), (3, "opener"), (3, "last"),
                   (3, "held")]
    # Three starts, the step, the timeout, the child's start, the hold's end.
    assert (sim.processed_events, sim.queued) == (7, 4)
    reference, pushed = _scenario(_interleaved, HeapOnly)
    assert reference == log and pushed.processed_events == 7 + 4


def test_a_target_fired_mid_merge_leaves_the_rest_to_the_next_run():
    # The child started between the two wakes fires the run's target: the
    # run returns with the second wake and the target's own dispatch still
    # queued, and the next run pushes them and dispatches them in key
    # order, counted.
    sim = CountingQueue()
    log = []
    gates = [sim.event(), sim.event()]
    target = sim.event()

    def child():
        log.append((sim.now, "child"))
        target.succeed("fired")
        yield from ()

    def first():
        yield gates[0]
        log.append((sim.now, "first"))
        sim.process(child())

    def second():
        yield gates[1]
        log.append((sim.now, "second"))

    def awaiter():
        value = yield target
        log.append((sim.now, "awaited", value))

    def step(_step):
        for gate in gates:
            gate.succeed()

    for body in (first, second, awaiter):
        sim.process(body())
    sim._schedule(3, step)
    assert sim.run(until=target) == "fired"
    log.append((sim.now, "returned"))
    assert [entry[3] for entry in sim._queue] == [gates[1], target] and sim.peek() == 3
    assert (sim.processed_events, sim.queued) == (5, 1)
    sim.run()
    assert log == [(3, "first"), (3, "child"), (3, "returned"), (3, "second"), (3, "awaited", "fired")]
    assert (sim.processed_events, sim.queued) == (7, 1)


def test_deliver_refuses_a_full_store():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.deliver("one")
    with pytest.raises(SimulationError, match="full store"):
        store.deliver("two")


def test_a_push_after_a_wake_passes_the_sanitizer(sanitized):
    sim = Simulator()
    gates = [sim.event(), sim.event()]

    def waiter(gate):
        yield gate

    def step(_step):
        Timeout(sim, 0)  # queued: the wake below runs after it
        gates[0].succeed()
        Timeout(sim, 1)

    for gate in gates:
        sim.process(waiter(gate))
    sim._schedule(3, step)
    sim._schedule(5, lambda _step: gates[1].succeed())
    sim.run()
    Timeout(sim, 2)
    sim.run()
    assert sim.now == 7


class _IgnoresTheQueue(Simulator):
    """A kernel whose in-place test forgets the queue."""

    def _next_in_line(self, when, callback=None):
        heap = self._heap
        if heap and heap[0][0] <= when:
            return False
        return (callback is None or self._dispatching[-1] is callback) and self._until._value is PENDING


def test_an_advance_past_a_queued_entry_raises_under_the_sanitizer(sanitized):
    # Unchecked, the gate's waiter would resume at 15 for an entry made at 5.
    sim = _IgnoresTheQueue()
    gate = sim.event()

    def waiter():
        yield gate

    def step(_step):
        gate.succeed()
        sim._after(10, lambda _step: None)

    sim.process(waiter())
    sim._schedule(5, step)
    with pytest.raises(SanitizerError, match="now moved to 15 while the queue held .* for 5"):
        sim.run()


def test_an_entry_queued_out_of_order_raises_under_the_sanitizer(sanitized):
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SanitizerError, match=r"queued for \(1, priority 1\) at 0"):
        sim._queue.append((1, NORMAL, 1, event))
    sim._queue.append((0, NORMAL, 5, event))
    with pytest.raises(SanitizerError, match="under key 4, not above the last one's"):
        sim._queue.append((0, NORMAL, 4, event))
