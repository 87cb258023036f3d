"""FPC issue-slot semantics: single-issue compute, latency hiding."""

import pytest

from repro.nfp import Fpc
from repro.nfp.memory import MemoryLevel
from repro.sim import Simulator


def test_compute_charges_cycles():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    done = []

    def program(thread):
        yield thread.compute(800)  # 800 cycles @ 800 MHz = 1 us
        done.append(sim.now)

    fpc.spawn(program)
    sim.run()
    assert done == [1000]
    assert fpc.busy_cycles == 800


def test_two_threads_serialize_compute():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    finished = []

    def program(thread):
        yield thread.compute(800)
        finished.append(sim.now)

    fpc.spawn(program)
    fpc.spawn(program)
    sim.run()
    # Pure compute cannot be overlapped on one core.
    assert finished == [1000, 2000]


def test_memory_wait_releases_issue_slot():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    slow_mem = MemoryLevel("M", 1024, latency_cycles=800)  # 1 us latency
    finished = []

    def program(thread):
        yield from thread.mem_read(slow_mem.latency_cycles, issue_cycles=0)
        yield thread.compute(80)
        finished.append(sim.now)

    fpc.spawn(program)
    fpc.spawn(program)
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

        def worker(thread):
            while remaining["count"] > 0:
                remaining["count"] -= 1
                yield thread.compute(100)
                yield from thread.mem_read(mem.latency_cycles)
            finish["t"] = sim.now

        for _ in range(n_threads):
            fpc.spawn(worker)
        sim.run()
        return finish["t"]

    single = run(1)
    eight = run(8)
    assert eight < single / 2  # threading hides most of the memory wait


def test_thread_limit_enforced():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0", n_threads=2)

    def idle(thread):
        yield thread.sim.timeout(1)

    fpc.spawn(idle)
    fpc.spawn(idle)
    with pytest.raises(RuntimeError):
        fpc.spawn(idle)


def test_utilization():
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")

    def program(thread):
        yield thread.compute(400)
        yield thread.sim.timeout(1_000)

    fpc.spawn(program)
    sim.run()
    elapsed = sim.now
    util = fpc.utilization(elapsed)
    assert 0.0 < util < 1.0
