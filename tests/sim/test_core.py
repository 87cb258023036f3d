"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
)


def test_timeout_advances_time():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(10)
        log.append(sim.now)
        yield sim.timeout(5)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [10, 15]
    assert sim.now == 15


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = []

    def proc(sim):
        value = yield sim.timeout(1, value="payload")
        seen.append(value)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["payload"]


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    order = []

    def first(sim):
        yield sim.timeout(0)
        order.append("first")

    def second(sim):
        yield sim.timeout(0)
        order.append("second")

    sim.process(first(sim))
    sim.process(second(sim))
    sim.run()
    assert order == ["first", "second"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim):
        value = yield gate
        log.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(42)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert log == [(42, "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer(sim):
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    sim.process(waiter(sim))
    sim.process(failer(sim))
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_yield_already_triggered_event():
    sim = Simulator()
    log = []
    gate = sim.event()
    gate.succeed(7)

    def proc(sim):
        value = yield gate
        log.append(value)

    sim.process(proc(sim))
    sim.run()
    assert log == [7]


def test_yield_event_drained_long_ago():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(3)
    log = []

    def late(sim):
        yield sim.timeout(100)
        value = yield gate
        log.append((sim.now, value))

    sim.process(late(sim))
    sim.run()
    assert log == [(100, 3)]


def test_process_return_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5)
        return 99

    def parent(sim):
        result = yield sim.process(child(sim))
        assert result == 99
        return result * 2

    proc = sim.process(parent(sim))
    sim.run()
    assert proc.value == 198


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("child died")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child died"]


def test_unhandled_process_exception_escapes_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError):
        sim.run()


def test_interrupt_wakes_process_early():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(1000)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(10)
        victim.interrupt(cause="wake")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupted", 10, "wake")]


def test_interrupt_terminated_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_all_of_collects_values():
    sim = Simulator()
    results = []

    def proc(sim):
        # A condition's members are built with Timeout: sim.timeout() made
        # by a running process is yielded at once (DESIGN §12 rule 3).
        t1 = Timeout(sim, 5, value="a")
        t2 = Timeout(sim, 10, value="b")
        values = yield AllOf(sim, [t1, t2])
        results.append((sim.now, sorted(values.values())))

    sim.process(proc(sim))
    sim.run()
    assert results == [(10, ["a", "b"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def proc(sim):
        t1 = Timeout(sim, 5, value="fast")
        t2 = Timeout(sim, 50, value="slow")
        values = yield AnyOf(sim, [t1, t2])
        results.append((sim.now, list(values.values())))

    sim.process(proc(sim))
    sim.run()
    assert results == [(5, ["fast"])]


def test_run_until_time_stops_clock():
    sim = Simulator()
    log = []

    def ticker(sim):
        while True:
            yield sim.timeout(10)
            log.append(sim.now)

    sim.process(ticker(sim))
    sim.run(until=100)
    assert sim.now == 100
    assert log == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]


def test_run_until_a_past_time_raises_and_leaves_the_clock():
    # Rewinding to 5 would let a timeout made afterwards fire at 6, after
    # the events at 10 and 20 were dispatched.
    sim = Simulator()
    log = []

    def sleeper(sim):
        yield sim.timeout(10)
        log.append(sim.now)
        yield sim.timeout(100)
        log.append(sim.now)

    sim.process(sleeper(sim))
    sim.run(until=20)
    with pytest.raises(SimulationError, match="before now"):
        sim.run(until=5)
    assert sim.now == 20
    sim.run(until=20)  # now itself: nothing to do
    sim.run()
    assert log == [10, 110] and sim.now == 110


def test_run_until_event():
    sim = Simulator()
    gate = sim.event()

    def opener(sim):
        yield sim.timeout(33)
        gate.succeed("done")

    sim.process(opener(sim))
    value = sim.run(until=gate)
    assert value == "done"
    assert sim.now == 33


def test_yield_non_event_rejected():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_peek_and_run():
    sim = Simulator()
    sim.timeout(7)
    sim.timeout(9)
    assert sim.peek() == 7
    sim.run(until=8)
    assert (sim.now, sim.peek()) == (8, 9)
    sim.run()
    assert (sim.now, sim.peek()) == (9, None)


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def worker(sim, i):
        yield sim.timeout(i % 17)
        done.append(i)

    for i in range(500):
        sim.process(worker(sim, i))
    sim.run()
    assert len(done) == 500


# -- what the kernel refuses, and the edges it keeps -------------------------


def test_an_untriggered_event_has_no_value():
    sim = Simulator()
    with pytest.raises(SimulationError, match="not been triggered"):
        sim.event().value


def test_an_event_fails_once_and_only_with_an_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError, match="requires an exception instance"):
        event.fail("boom")
    assert not event.triggered  # a refused fail() triggers nothing
    event.succeed()
    with pytest.raises(SimulationError, match="already triggered"):
        event.fail(ValueError("late"))


def test_a_process_needs_a_generator():
    sim = Simulator()
    with pytest.raises(SimulationError, match="requires a generator"):
        sim.process(lambda: None)


def test_a_condition_over_nothing_fires_at_once_with_no_values():
    sim = Simulator()
    seen = []

    def waiter():
        seen.append((yield sim.all_of([])))
        seen.append((yield sim.any_of([])))

    sim.process(waiter())
    sim.run()
    assert seen == [{}, {}] and sim.now == 0


def test_a_condition_fails_with_its_first_failing_member():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield sim.all_of([Timeout(sim, 5), gate])
        except ValueError as exc:
            caught.append((sim.now, str(exc)))

    def failer():
        yield sim.timeout(2)
        gate.fail(ValueError("member failed"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == [(2, "member failed")]  # not held until the 5 ns member


def test_an_event_is_dispatched_once_even_when_its_process_ends_twice():
    # A process event triggered from outside, whose generator then raises
    # before that dispatch, is not pushed again: its one dispatch carries
    # the exception.
    sim = Simulator()
    gate = sim.event()
    caught = []

    def doomed():
        yield gate
        raise ValueError("ended")

    proc = sim.process(doomed())

    def watcher():
        try:
            yield proc
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(watcher())
    sim.run()  # both parked
    gate.succeed()
    proc.succeed("early")
    sim.run()
    assert caught == ["ended"] and sim.processed_events == 4


def test_run_until_an_event_that_never_fires_raises_when_the_heap_runs_dry():
    sim = Simulator()
    Timeout(sim, 5)
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=sim.event())
    assert sim.now == 5


def test_run_until_a_failed_event_raises_its_exception():
    sim = Simulator()
    gate = sim.event()

    def failer():
        yield sim.timeout(3)
        gate.fail(KeyError("target failed"))

    sim.process(failer())
    with pytest.raises(KeyError, match="target failed"):
        sim.run(until=gate)
    assert sim.now == 3


@pytest.mark.parametrize("drive", ["run", "run-until-time", "run-until-event"])
def test_the_clock_never_runs_backwards(drive):
    # Only a push below now (which no public call makes) can get here.
    sim = Simulator()
    sim.run(until=10)
    sim._schedule(4, lambda _step: None)
    with pytest.raises(SimulationError, match="time went backwards"):
        if drive == "run":
            sim.run()
        elif drive == "run-until-time":
            sim.run(until=20)
        else:
            sim.run(until=sim.event())
    assert sim.now == 10
