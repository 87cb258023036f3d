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


def test_peek_and_step():
    sim = Simulator()
    sim.timeout(7)
    assert sim.peek() == 7
    sim.step()
    assert sim.now == 7
    assert sim.peek() is None


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
