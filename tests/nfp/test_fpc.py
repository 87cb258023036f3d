"""FPC issue-slot semantics: single-issue compute, latency hiding, and a
killed thread's grant handed on."""

import pytest

from repro.nfp import Fpc
from repro.nfp.fpc import ISSUE_CYCLES
from repro.nfp.memory import MemoryLevel
from repro.sim import Resource, Simulator


def _end(_thread, _value):
    return False


def test_compute_charges_cycles():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    done = []

    def finished(_thread, _value):
        done.append(sim.now)
        return False

    fpc.run(lambda thread, _value: thread.charge(800, finished))  # 800 cycles @ 800 MHz = 1 us
    sim.run()
    assert done == [1000]
    assert fpc.busy_cycles == 800


def test_two_threads_serialize_compute():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    finished = []

    def program(thread, _value):
        return thread.charge(800, done)

    def done(_thread, _value):
        finished.append(sim.now)
        return False

    fpc.run(program)
    fpc.run(program)
    sim.run()
    # Pure compute cannot be overlapped on one core.
    assert finished == [1000, 2000]


def test_memory_wait_releases_issue_slot():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    slow_mem = MemoryLevel("M", 1024, latency_cycles=800)  # 1 us latency
    finished = []

    def program(thread, _value):
        return thread.read(slow_mem.latency_cycles, 0, computed)

    def computed(thread, _value):
        return thread.charge(80, done)

    def done(_thread, _value):
        finished.append(sim.now)
        return False

    fpc.run(program)
    fpc.run(program)
    sim.run()
    # Both threads overlap their 1 us memory waits; computes serialize after.
    assert finished[0] == 1100
    assert finished[1] <= 1200


def test_eight_threads_hide_latency_better_than_one():
    def run(n_threads, n_items=16):
        sim = Simulator()
        fpc = Fpc(sim, "fpc0")
        mem = MemoryLevel("M", 1024, latency_cycles=400)
        remaining = {"count": n_items}
        finish = {"t": None}

        def worker(thread, _value):
            if remaining["count"] <= 0:
                finish["t"] = sim.now
                return False
            remaining["count"] -= 1
            return thread.charge(100, read)

        def read(thread, _value):
            return thread.read(mem.latency_cycles, ISSUE_CYCLES, worker)

        for _ in range(n_threads):
            fpc.run(worker)
        sim.run()
        return finish["t"]

    single = run(1)
    eight = run(8)
    assert eight < single / 2  # threading hides most of the memory wait


def test_thread_limit_enforced():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0", n_threads=2)

    def idle(thread, _value):
        return thread.sleep(1, _end)

    fpc.run(idle)
    fpc.run(idle)
    with pytest.raises(RuntimeError):
        fpc.run(idle)


def test_utilization():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")

    def program(thread, _value):
        return thread.charge(400, lambda thread, _value: thread.sleep(1_000, _end))

    fpc.run(program)
    sim.run()
    elapsed = sim.now
    util = fpc.utilization(elapsed)
    assert 0.0 < util < 1.0


def test_a_killed_thread_frees_its_grant_to_the_queued_request():
    # Run to completion's worker holds the serial lock while service
    # threads queue on it; a crash kills the worker mid-hold.
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    lock = Resource(sim, capacity=1)
    granted = []

    def holder(thread, _value):
        return thread.request(lock, hold)

    def hold(thread, grant):
        thread.held = grant
        return thread.sleep(1_000, _end)

    def waiter(thread, _value):
        return thread.request(lock, got)

    def got(_thread, grant):
        granted.append((sim.now, grant))
        return False

    worker = fpc.run(holder)
    fpc.run(waiter)
    sim.run(until=10)
    assert lock.in_use == 1 and len(lock._queue) == 1 and not granted
    worker.kill()
    sim.run(until=20)
    assert worker.held is None and not worker.is_alive
    ((at, grant),) = granted
    assert at == 10 and lock._users == {grant} and not lock._queue
