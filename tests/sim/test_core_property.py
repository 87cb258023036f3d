"""Property-based tests for the event-loop kernel.

The kernel's invariants, whatever its dispatch loop looks like:

* dispatch times never decrease over a run;
* events scheduled for the same instant fire in schedule order (FIFO
  tie-break via the global sequence counter);
* a process nobody waits on costs its own steps and nothing else: its
  exit is not dispatched, and adding such processes to a schedule never
  changes the order in which everything else runs;
* ``run()``, ``run(until=t)`` and ``run(until=event)`` are one
  dispatch: however a program is driven, it produces the same transcript
  and, but for slicing, the same count of dispatches, those run from the
  same-instant queue included — grants and sleeps taken on the spot too,
  which read what the loop records of the dispatch and of its bounds; a
  sleep never outlasts a slice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store
from tests.sim.test_same_instant_queue import CountingQueue
from tests.sim.test_spot_grants import CountingSpots


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=64))
def test_fire_times_nondecreasing(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.timeout(delay).callbacks.append(lambda _ev, s=sim: fired.append(s.now))
    sim.run()
    assert fired == sorted(fired)
    assert sorted(fired) == sorted(delays)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=8),
        min_size=1,
        max_size=12,
    )
)
def test_fire_times_nondecreasing_with_nested_scheduling(chains):
    # Timeouts created *during* the run (by running processes) land
    # among those already scheduled; time must still never move backwards.
    sim = Simulator()
    fired = []

    def runner(seq):
        for delay in seq:
            yield sim.timeout(delay)
            fired.append(sim.now)

    for seq in chains:
        sim.process(runner(seq))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == sum(len(seq) for seq in chains)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=64))
def test_same_instant_fifo_by_schedule_order(delays):
    # The tiny delay range forces many same-timestamp collisions; ties
    # must resolve in schedule order (stable by creation index).
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.timeout(delay).callbacks.append(lambda _ev, i=index: fired.append(i))
    sim.run()
    assert fired == sorted(range(len(delays)), key=lambda i: (delays[i], i))


_STEPS = st.lists(st.integers(min_value=0, max_value=6), max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=8), st.lists(_STEPS, max_size=8))
def test_waiterless_processes_never_reorder_what_is_observed(chains, silent):
    # The tiny delay range forces same-instant collisions between the
    # observed steps and the silent processes' steps and exits.
    def observe(background):
        sim = CountingSpots()
        order = []

        def observed(index, steps):
            for step, delay in enumerate(steps):
                yield sim.timeout(delay)
                order.append((index, step, sim.now))

        def unobserved(steps):
            for delay in steps:
                yield sim.timeout(delay)
            return "nobody asks"

        for index, steps in enumerate(chains):
            sim.process(observed(index, steps))
            if index < len(background):  # interleave creation order too
                sim.process(unobserved(background[index]))
        for steps in background[len(chains) :]:
            sim.process(unobserved(steps))
        sim.run()
        return order, sim.processed_events + sim.queued + sim.spots

    alone, alone_events = observe([])
    mixed, mixed_events = observe(silent)
    assert mixed == alone
    # Each silent process pays its Initialize and its timeouts; its exit
    # is never dispatched. A sleep taken on the spot or run from the queue
    # counts as the event it would have been: whose sleeps are taken moves
    # with the mix.
    assert mixed_events - alone_events == sum(1 + len(steps) for steps in silent)


def test_held_timeout_keeps_its_value_while_later_timeouts_come_and_go():
    # An event object is never reused: what a caller holds is what fired.
    sim = Simulator()
    held = sim.timeout(5, value="kept")
    sim.run()
    for later in range(2000):
        sim.timeout(1, value=later)
    sim.run()
    assert held.value == "kept" and sim.processed_events == 2001


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=60))
def test_bounded_store_is_fifo_for_any_interleaving(gaps):
    # A bounded store is an exact FIFO for any producer/consumer
    # interleaving, blocked puts and parked gets included.
    sim = Simulator()
    store = Store(sim, capacity=4)
    received = []

    def producer():
        for item, gap in enumerate(gaps):
            yield store.put(item)
            if gap:
                yield sim.timeout(gap)

    def consumer():
        for _ in gaps:
            item = yield store.get()
            received.append(item)
            yield sim.timeout(1)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == list(range(len(gaps)))


# -- one dispatch, four ways to drive it -------------------------------------

_N_STORES = _N_GATES = 2
_CAPACITIES = (1, 2)  # one resource of each
_OP = st.one_of(
    st.tuples(st.just("timeout"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("put"), st.integers(min_value=0, max_value=_N_STORES - 1)),
    st.tuples(st.just("get"), st.integers(min_value=0, max_value=_N_STORES - 1)),
    st.tuples(st.just("relay"), st.integers(min_value=0, max_value=_N_STORES - 1)),
    st.tuples(st.just("hold"), st.integers(min_value=0, max_value=len(_CAPACITIES) - 1)),
    st.tuples(st.just("gate"), st.integers(min_value=0, max_value=_N_GATES - 1)),
    st.tuples(st.just("join"), st.integers(min_value=0, max_value=7)),
)
_PROGRAM = st.lists(st.lists(_OP, max_size=6), min_size=1, max_size=8)


def _play(program, sentinel_delays, drive):
    """Run ``program`` under ``drive(sim, sentinel)``; returns the
    ``(now, process, value)`` transcript and the dispatch count."""
    sim = CountingQueue()
    stores = [Store(sim, capacity=2) for _ in range(_N_STORES)]
    resources = [Resource(sim, capacity=k) for k in _CAPACITIES]
    gates = [sim.event() for _ in range(_N_GATES)]  # several waiters, one event
    transcript = []
    processes = []

    def body(pid, ops):
        for step, (op, arg) in enumerate(ops):
            if op == "timeout":
                value = yield sim.timeout(arg, value=(pid, step))
            elif op == "put":
                value = yield stores[arg].put((pid, step))
            elif op == "get":
                value = yield stores[arg].get()
            elif op == "relay":  # a get on a store just put to: often taken on the spot
                yield stores[arg].put((pid, step))
                value = yield stores[arg].get()
            elif op == "hold":
                with (yield resources[arg].request()):
                    yield sim.timeout(1)
                value = ("held", arg)
            elif op == "gate":
                value = yield gates[arg]
            elif arg < pid:  # join an earlier process (it may never end)
                value = yield processes[arg]
            else:
                continue
            transcript.append((sim.now, pid, value))
        return pid

    def sentinel_body():
        # Timeouts only, so it always ends: a legal run(until=event) target.
        # On its way it opens the gates, if it gets that far.
        for step, delay in enumerate(sentinel_delays):
            yield sim.timeout(delay)
            transcript.append((sim.now, "sentinel", None))
            if step < _N_GATES:
                gates[step].succeed(step)

    for pid, ops in enumerate(program):
        processes.append(sim.process(body(pid, ops)))
    drive(sim, sim.process(sentinel_body()))
    assert sim.peek() is None  # drained: a parked get or put holds no event
    return transcript, sim.processed_events + sim.queued


def _by_run(sim, _sentinel):
    sim.run()


def _by_event(sim, sentinel):
    sim.run(until=sentinel)
    assert not sentinel.is_alive
    sim.run()


@settings(max_examples=150, deadline=None)
@given(
    _PROGRAM,
    st.lists(st.integers(min_value=0, max_value=6), max_size=5),
    st.lists(st.integers(min_value=0, max_value=12), max_size=6),
)
def test_every_way_of_driving_the_kernel_is_the_same_dispatch(program, sentinel_delays, slices):
    def by_slices(sim, _sentinel):
        for horizon in slices:  # any order; a horizon in the past is skipped
            if horizon >= sim.now:
                sim.run(until=horizon)
                assert sim.now == horizon
        sim.run()

    reference, events = _play(program, sentinel_delays, _by_run)
    assert _play(program, sentinel_delays, _by_event) == (reference, events)
    # A sleep that would end past a slice's horizon is pushed, not taken.
    sliced, sliced_events = _play(program, sentinel_delays, by_slices)
    assert sliced == reference and sliced_events >= events
