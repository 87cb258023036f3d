"""Events taken on the spot (DESIGN §12 rule 3): a ``Resource.request()``
or ``Store.get()`` satisfied while its process is next in line, and a
``sim.timeout()`` that nothing else precedes, never enter the heap; the
process continues where — and when — the event's dispatch would have
resumed it. The run is the same run with fewer events: the reference is a
kernel whose next-in-line check always says no, so every grant and every
sleep is pushed and dispatched, and each program is driven the three
ways a caller can drive the kernel (``tests/sim/drives.py``). Both count
what they run from the same-instant queue as well as the events they
dispatch."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.nfp import Fpc
from repro.sim import Resource, SimulationError, Simulator, Store, Timeout
from repro.sim.resources import Hold
from tests.sim.drives import DRIVES, unmarked
from tests.sim.test_same_instant_queue import CountingQueue


class NeverNextInLine(CountingQueue):
    """Every grant and every sleep goes through the heap."""

    def _grant_on_the_spot(self, event, value, when):
        return False


class CountingSpots(CountingQueue):
    """The kernel as it is, counting the events it takes on the spot."""

    spots = 0

    def _grant_on_the_spot(self, event, value, when):
        taken = CountingQueue._grant_on_the_spot(self, event, value, when)
        self.spots += taken
        return taken


_RESOURCES = (1, 1, 3)  # capacities: two capacity-1 resources, one capacity-k
_STORES = (1, 2)  # bounded store capacities
_N_GATES = 2
_DELAY = st.integers(min_value=0, max_value=3)
_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("hold"), st.integers(0, len(_RESOURCES) - 1), _DELAY),
    st.tuples(st.just("put"), st.integers(0, len(_STORES) - 1), _DELAY),
    st.tuples(st.just("get"), st.integers(0, len(_STORES) - 1), _DELAY),
    # One event several processes wait on: only the last one resumed may
    # take anything on the spot.
    st.tuples(st.just("meet"), st.integers(0, 1)),
    st.tuples(st.just("gate"), st.integers(0, _N_GATES - 1)),
    st.tuples(st.just("open"), st.integers(0, _N_GATES - 1)),
    st.tuples(st.just("join"), st.integers(0, 7)),
)
_PROGRAM = st.lists(st.lists(_OP, max_size=8), min_size=1, max_size=6)
# The target of run(until=event): sleeps and meetings only, so it ends;
# nobody joins it, so it ends unobserved. It starts first and ends with a
# meeting, so it often ends in a dispatch whose later callbacks resume
# other processes.
_SENTINEL = st.tuples(
    st.lists(
        st.one_of(st.tuples(st.just("sleep"), _DELAY), st.tuples(st.just("meet"), st.integers(0, 1))),
        max_size=4,
    ),
    st.integers(0, 1),
).map(lambda ops_last: ops_last[0] + [("meet", ops_last[1])])
_SLICES = st.lists(st.integers(min_value=0, max_value=16), max_size=6)


def transcript(kernel, program, sentinel_ops, drive, slices=()):
    """Run ``program`` on ``kernel`` under ``drive``; returns its
    ``(now, pid, value)`` transcript and the simulator."""
    sim = kernel()
    resources = [Resource(sim, capacity=k) for k in _RESOURCES]
    stores = [Store(sim, capacity=k) for k in _STORES]
    meetings = [sim.timeout(1, value="m0"), sim.timeout(2, value="m1")]
    gates = [sim.event() for _ in range(_N_GATES)]
    processes = []
    log = []

    def step(pid, index, op):
        kind, arg = op[0], op[1]
        if kind == "sleep":
            return (yield sim.timeout(arg, value=(pid, index)))
        if kind == "hold":
            with (yield resources[arg].request()):
                log.append((sim.now, pid, ("granted", arg)))
                yield sim.timeout(op[2])
            return ("released", arg)
        if kind == "put":
            yield stores[arg].put((pid, index))
            log.append((sim.now, pid, ("put", arg)))
            return (yield sim.timeout(op[2], value="after put"))
        if kind == "get":
            item = yield stores[arg].get()
            log.append((sim.now, pid, ("got", arg, item)))
            return (yield sim.timeout(op[2], value="after get"))
        if kind == "meet":
            return (yield meetings[arg])
        if kind == "gate":
            return (yield gates[arg])
        if kind == "open":
            if not gates[arg].triggered:
                gates[arg].succeed(pid)
            return ("opened", arg)
        if arg < pid:  # join an earlier process (it may never end)
            return (yield processes[arg])
        return "no one to join"

    def body(pid, ops):
        for index, op in enumerate(ops):
            value = yield from step(pid, index, op)
            log.append((sim.now, pid, value))
        return pid

    sentinel = sim.process(body("sentinel", sentinel_ops))
    for pid, ops in enumerate(program):
        processes.append(sim.process(body(pid, ops)))
    drive(sim, sentinel, slices, log)
    assert not sentinel.is_alive
    return log, sim


@settings(max_examples=150, deadline=None)
@given(_PROGRAM, _SENTINEL, _SLICES)
# The target ends as the first of two waiters on a meeting; the second
# then sleeps with nothing else due, and must not sleep past the target.
@example([[("meet", 1), ("sleep", 1)]], [("meet", 1)], [])
# A sleep from 2 to 3 with nothing else due, across a horizon at 2.
@example([[("meet", 1), ("sleep", 1)]], [("meet", 0)], [2])
def test_spot_grants_change_the_event_count_and_nothing_else(program, sentinel_ops, slices):
    runs = set()
    for drive in DRIVES:
        reference, pushed = transcript(NeverNextInLine, program, sentinel_ops, drive, slices)
        observed, spot = transcript(CountingSpots, program, sentinel_ops, drive, slices)
        assert observed == reference, drive.__name__
        dispatched = pushed.processed_events + pushed.queued - spot.processed_events - spot.queued
        assert dispatched == spot.spots, drive.__name__
        runs.add(unmarked(observed))
    assert len(runs) == 1  # one run, however it was driven


def test_an_uncontended_issue_slot_costs_no_event():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")

    def program():
        yield Hold(fpc.issue_slot, fpc.cycles_to_ns(8), 8)
        yield Hold(fpc.issue_slot, fpc.cycles_to_ns(8), 8)

    sim.process(program())
    sim.run()
    # The start only: both slot grants and both compute sleeps on the spot.
    assert sim.processed_events == 1 and sim.now == 20


def test_a_grant_waits_for_what_is_due_now():
    # Another event due at this instant would run before the grant's
    # dispatch, so the grant is queued behind it (both run uncounted).
    sim = Simulator()
    slot = Resource(sim)
    log = []

    def worker():
        sim.timeout(0).callbacks.append(lambda _event: log.append("other"))
        with (yield slot.request()):
            log.append("granted")

    sim.process(worker())
    sim.run()
    assert log == ["other", "granted"] and sim.processed_events == 1


def test_a_sleep_waits_for_what_is_due_by_its_wake_time():
    # An entry due at the very instant the sleep ends was scheduled
    # first, so it runs first; one due an instant later does not hold
    # the sleep up.
    for other_at, order, events in ((10, ["other", "woke"], 3), (11, ["woke", "other"], 2)):
        sim = Simulator()
        log = []
        sim.timeout(other_at).callbacks.append(lambda _event: log.append("other"))

        def sleeper():
            yield sim.timeout(10)
            log.append("woke")

        sim.process(sleeper())
        sim.run()
        assert log == order and sim.processed_events == events


def test_a_grant_waits_for_the_callbacks_after_its_process():
    sim = Simulator()
    store = Store(sim)
    store.force_put("item")
    gate = sim.event()
    log = []

    def taker():
        yield gate
        log.append((yield store.get()))

    sim.process(taker())
    sim.run()
    gate.callbacks.append(lambda _event: log.append("later callback"))
    gate.succeed()
    sim.run()
    assert log == ["later callback", "item"]


def test_a_condition_refuses_an_event_taken_on_the_spot():
    # The get would be read as already fired and succeed the condition
    # out of its dispatch position; it fails loudly instead.
    sim = Simulator()
    store = Store(sim)
    store.force_put("item")

    def combiner():
        yield sim.any_of([store.get(), Timeout(sim, 5)])

    sim.process(combiner())
    with pytest.raises(SimulationError, match="taken on the spot"):
        sim.run()


def test_a_condition_refuses_a_sleep_taken_on_the_spot():
    sim = Simulator()

    def combiner():
        yield sim.all_of([sim.timeout(5)])

    sim.process(combiner())
    with pytest.raises(SimulationError, match="taken on the spot"):
        sim.run()


def test_a_grant_not_yielded_next_raises_under_the_sanitizer(sanitized):
    sim = Simulator()
    slot = Resource(sim, name="slot")

    def hoarder():
        slot.request()  # granted on the spot, then left unyielded
        yield Timeout(sim, 1)

    sim.process(hoarder(), name="hoarder")
    with pytest.raises(SanitizerError, match="'hoarder' took .* on the spot but yielded something else"):
        sim.run()


def test_a_second_spot_event_before_the_first_is_yielded_raises_under_the_sanitizer(sanitized):
    # Unchecked, the second would overwrite the first and the process
    # would go on at the second's wake time.
    sim = Simulator()

    def sleeper():
        sim.timeout(5)  # slept on the spot, then left unyielded
        yield sim.timeout(3)

    sim.process(sleeper(), name="sleeper")
    with pytest.raises(SanitizerError, match="'sleeper' took .* made another event before yielding it"):
        sim.run()


def test_a_sleep_not_yielded_next_raises_under_the_sanitizer(sanitized):
    sim = Simulator()
    gate = sim.event()

    def dawdler():
        sim.timeout(5)  # slept on the spot, then left unyielded
        yield gate

    sim.process(dawdler(), name="dawdler")
    with pytest.raises(SanitizerError, match="'dawdler' took .* timeout\\(\\) is yielded at once"):
        sim.run()


def test_a_hold_not_yielded_next_raises_under_the_sanitizer(sanitized):
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")

    def idler():
        Hold(fpc.issue_slot, fpc.cycles_to_ns(8), 8)  # held, slept and released on the spot, then left unyielded
        yield Timeout(sim, 1)

    sim.process(idler(), name="idler")
    with pytest.raises(SanitizerError, match="'idler' took .* on the spot but yielded something else"):
        sim.run()


def test_an_engine_step_run_in_place_from_a_process_raises_under_the_sanitizer(sanitized):
    # Unchecked, the step would run mid-resume, ten ns ahead of the process
    # still running: where an operation is issued, its first step is pushed.
    sim = Simulator()
    ran = []

    def issuer():
        sim._after(10, lambda _step: ran.append(sim.now))
        yield Timeout(sim, 1)

    sim.process(issuer(), name="issuer")
    with pytest.raises(SanitizerError, match="in place at 10 from inside process 'issuer'"):
        sim.run()
    assert ran == []


def test_an_engine_step_runs_its_successor_in_place_in_its_own_dispatch_under_the_sanitizer(sanitized):
    sim = Simulator()
    ran = []

    def second(_step):
        ran.append(sim.now)

    sim._schedule(5, lambda _step: sim._after(10, second))
    sim.run()
    assert ran == [15] and sim.processed_events == 1  # the second step never entered the heap
