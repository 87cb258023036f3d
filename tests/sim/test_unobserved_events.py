"""What the kernel never schedules (DESIGN §12): the exit of a process
nobody waits on, and a fence turn's ``leave()`` nobody is blocked on.
Both events would dispatch an empty callback list; dropping them cannot
reorder what remains, and the value stays readable on the already-fired
path."""

import pytest

from repro.flextoe.seqr import KeyedFence
from repro.sim import Simulator, Timeout
from tests.sim.test_same_instant_queue import CountingQueue


def returns_after(sim, delay, value):
    yield sim.timeout(delay)
    return value


def test_unobserved_process_exit_is_not_dispatched():
    sim = Simulator()
    proc = sim.process(returns_after(sim, 5, "done"))
    sim.run()
    # Initialize only: the sleep is taken on the spot (rule 3) and the exit
    # is not dispatched (rule 1).
    assert sim.processed_events == 1
    assert not proc.is_alive and proc.value == "done"
    assert sim.peek() is None


def test_observed_process_exit_is_still_dispatched():
    sim = CountingQueue()
    seen = []
    proc = sim.process(returns_after(sim, 5, "done"))
    proc.callbacks.append(lambda event: seen.append((sim.now, event.value)))
    sim.run()
    # Initialize, and the exit from the same-instant queue; the sleep is
    # taken on the spot (rule 3).
    assert sim.processed_events == 1 and sim.queued == 1
    assert seen == [(5, "done")]


def test_run_until_a_process_returns_its_value():
    sim = Simulator()
    proc = sim.process(returns_after(sim, 5, "done"))
    assert sim.run(until=proc) == "done"
    assert sim.now == 5
    # ... and again once it finished unobserved long ago.
    sim.timeout(20)
    sim.run()
    assert sim.run(until=proc) == "done"
    assert sim.now == 25


def test_later_waiters_take_the_already_fired_path():
    sim = Simulator()
    proc = sim.process(returns_after(sim, 5, "done"))
    got = {}

    def late_yield():
        yield sim.timeout(9)
        got["yield"] = (yield proc)
        got["yield_at"] = sim.now

    def late_conditions():
        yield sim.timeout(9)
        got["all_of"] = yield sim.all_of([proc])
        got["any_of"] = yield sim.any_of([proc, Timeout(sim, 50)])
        got["conditions_at"] = sim.now

    sim.process(late_yield())
    sim.process(late_conditions())
    sim.run(until=40)
    assert got["yield"] == "done" and got["yield_at"] == 9
    assert got["all_of"] == {proc: "done"}
    assert got["any_of"] == {proc: "done"}
    assert got["conditions_at"] == 9


def test_unobserved_process_that_raises_still_escapes_run():
    sim = Simulator()

    def doomed():
        yield sim.timeout(3)
        raise ValueError("nobody is listening")

    sim.process(doomed())
    with pytest.raises(ValueError, match="nobody is listening"):
        sim.run()
    assert sim.now == 3


def test_turn_leave_without_a_waiter_schedules_nothing():
    sim = Simulator()
    fence = KeyedFence(sim)
    turn = fence.enter("conn")
    assert not turn.blocked()
    turn.leave()
    assert turn.triggered and len(fence) == 0
    assert sim.peek() is None and sim.processed_events == 0
    # The key's next work is not fenced behind a turn that has left.
    follower = fence.enter("conn")
    assert not follower.blocked()
    follower.leave()
    assert sim.peek() is None


def test_turn_leave_with_a_waiter_wakes_it_in_schedule_order():
    sim = Simulator()
    fence = KeyedFence(sim)
    first = fence.enter("conn")
    second = fence.enter("conn")
    log = []

    def follower():
        assert second.blocked()
        yield second.prev
        log.append("follower")
        second.leave()

    def leader():
        yield sim.timeout(10)
        sim.timeout(0).callbacks.append(lambda _event: log.append("before"))
        first.leave()
        sim.timeout(0).callbacks.append(lambda _event: log.append("after"))

    sim.process(follower())
    sim.process(leader())
    sim.run()
    # The wake-up sits where leave() was called among same-instant events.
    assert log == ["before", "follower", "after"]
    assert sim.now == 10 and len(fence) == 0
