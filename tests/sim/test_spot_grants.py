"""Grants taken on the spot (DESIGN §12 rule 3): a ``Resource.request()``
or ``Store.get()`` satisfied while its process is next in line never
enters the heap, and the process continues where the grant's dispatch
would have resumed it. The run is the same run with fewer events: the
reference is a kernel whose next-in-line check always says no, so
every grant is pushed and dispatched."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.nfp import Fpc
from repro.sim import Resource, Simulator, Store


class NeverNextInLine(Simulator):
    """Every grant goes through the heap."""

    def _grant_on_the_spot(self, event, value):
        return False


class CountingSpots(Simulator):
    """The kernel as it is, counting the grants it takes on the spot."""

    spots = 0

    def _grant_on_the_spot(self, event, value):
        taken = Simulator._grant_on_the_spot(self, event, value)
        self.spots += taken
        return taken


_RESOURCES = (1, 1, 3)  # capacities: two capacity-1 resources, one capacity-k
_STORES = (1, 2)  # bounded store capacities
_DELAY = st.integers(min_value=0, max_value=2)
_OP = st.one_of(
    st.tuples(st.just("hold"), st.integers(0, len(_RESOURCES) - 1), _DELAY),
    st.tuples(st.just("put"), st.integers(0, len(_STORES) - 1), _DELAY),
    st.tuples(st.just("get"), st.integers(0, len(_STORES) - 1), _DELAY),
    st.tuples(st.just("sleep"), _DELAY, _DELAY),
    # One event several processes wait on: only the last one resumed
    # may take a grant on the spot.
    st.tuples(st.just("meet"), st.integers(0, 1), _DELAY),
)


def transcript(kernel, program):
    """Run ``program`` on ``kernel``; returns its (when, who, what)
    transcript and the simulator."""
    sim = kernel()
    resources = [Resource(sim, capacity=k) for k in _RESOURCES]
    stores = [Store(sim, capacity=k) for k in _STORES]
    meetings = [sim.timeout(1), sim.timeout(2)]
    log = []

    def body(pid, ops):
        for step, (op, arg, delay) in enumerate(ops):
            if op == "hold":
                with (yield resources[arg].request()):
                    log.append((sim.now, pid, ("granted", arg)))
                    yield sim.timeout(delay)
                log.append((sim.now, pid, ("released", arg)))
            elif op == "put":
                yield stores[arg].put((pid, step))
                log.append((sim.now, pid, ("put", arg)))
                yield sim.timeout(delay)
            elif op == "get":
                item = yield stores[arg].get()
                log.append((sim.now, pid, ("got", arg, item)))
                yield sim.timeout(delay)
            elif op == "meet":
                yield meetings[arg]
                log.append((sim.now, pid, ("met", arg)))
            else:
                yield sim.timeout(arg)
                log.append((sim.now, pid, ("woke",)))

    for pid, ops in enumerate(program):
        sim.process(body(pid, ops))
    sim.run()
    return log, sim


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_OP, max_size=8), min_size=1, max_size=6))
def test_spot_grants_change_the_event_count_and_nothing_else(program):
    reference, pushed = transcript(NeverNextInLine, program)
    observed, spot = transcript(CountingSpots, program)
    assert observed == reference
    assert pushed.processed_events - spot.processed_events == spot.spots


def test_an_uncontended_issue_slot_costs_no_event():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")

    def program(thread):
        yield from thread.compute(8)
        yield from thread.compute(8)

    fpc.spawn(program)
    sim.run()
    # The start and the two compute timeouts; both slot grants on the spot.
    assert sim.processed_events == 3 and sim.now == 20


def test_a_grant_waits_for_what_is_due_now():
    # Another event due at this instant would run before the grant's
    # dispatch, so the grant is pushed behind it.
    sim = Simulator()
    slot = Resource(sim)
    log = []

    def worker():
        sim.timeout(0).callbacks.append(lambda _event: log.append("other"))
        with (yield slot.request()):
            log.append("granted")

    sim.process(worker())
    sim.run()
    assert log == ["other", "granted"] and sim.processed_events == 3


def test_a_grant_waits_for_the_callbacks_after_its_process():
    sim = Simulator()
    store = Store(sim)
    store.try_put("item")
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


def test_a_grant_not_yielded_next_raises_under_the_sanitizer(sanitized):
    sim = Simulator()
    slot = Resource(sim, name="slot")

    def hoarder():
        slot.request()  # granted on the spot, then left unyielded
        yield sim.timeout(1)

    sim.process(hoarder(), name="hoarder")
    with pytest.raises(SanitizerError, match="'hoarder' was granted .* on the spot"):
        sim.run()
