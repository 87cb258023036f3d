"""Property-based tests for the event-loop kernel.

The hot-path rewrite (inlined run loops, free-list event recycling) must
preserve three kernel invariants exactly:

* dispatch times never decrease over a run;
* events scheduled for the same instant fire in schedule order (FIFO
  tie-break via the global sequence counter);
* the free lists only ever hold dead, drained events — a recycled
  object can never alias an event something still waits on;
* a process nobody waits on costs its own steps and nothing else: its
  exit is not dispatched, and adding such processes to a schedule never
  changes the order in which everything else runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Store
from repro.sim.core import POOL_MAX, Timeout


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
    # Timeouts created *during* the run (by running processes) exercise
    # the pool reuse path; time must still never move backwards.
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pools_hold_only_dead_events(data):
    # At every observation point, every pooled event must be dead
    # (callbacks drained to None) and absent from the schedule heap, so
    # a pool can never hand out an object something still waits on.
    sim = Simulator()
    done = []

    def runner(seq):
        for delay in seq:
            yield sim.timeout(delay)
        done.append(sim.now)

    chains = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        )
    )
    for seq in chains:
        sim.process(runner(seq))
    horizons = data.draw(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=4))
    for horizon in sorted(horizons):
        sim.run(until=horizon)
        scheduled = {id(entry[3]) for entry in sim._heap}
        for pool in sim._pools.values():
            for event in pool:
                assert event.callbacks is None
                assert id(event) not in scheduled
    sim.run()
    assert len(done) == len(chains)


_STEPS = st.lists(st.integers(min_value=0, max_value=6), max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=8), st.lists(_STEPS, max_size=8))
def test_waiterless_processes_never_reorder_what_is_observed(chains, silent):
    # The tiny delay range forces same-instant collisions between the
    # observed steps and the silent processes' steps and exits.
    def observe(background):
        sim = Simulator()
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
        return order, sim.processed_events

    alone, alone_events = observe([])
    mixed, mixed_events = observe(silent)
    assert mixed == alone
    # Each silent process pays its Initialize and its timeouts; its exit
    # is never dispatched.
    assert mixed_events - alone_events == sum(1 + len(steps) for steps in silent)


def test_referenced_event_is_never_recycled():
    # The refcount guard: an event the test still holds must not enter
    # the free list, and fresh timeouts must never alias it.
    sim = Simulator()
    held = sim.timeout(5)
    sim.run()
    assert all(event is not held for event in sim._pools[Timeout])
    fresh = [sim.timeout(0) for _ in range(POOL_MAX + 8)]
    assert all(event is not held for event in fresh)
    assert held.value is None  # still readable after the run


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=60))
def test_store_fifo_order_under_event_recycling(gaps):
    # StorePut/StoreGet are pooled too; a bounded store must still
    # behave as an exact FIFO for any producer/consumer interleaving.
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
