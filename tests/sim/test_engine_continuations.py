"""Hardware engines as continuations (DESIGN §12 rule 3): an FPC compute,
a host-core run, a DMA operation, an FPC stall and a core steal push the
same heap entries, at the same times and in the same order, as the
processes they stand for — so a run is the same run with the same number
of events. The reference below is those processes (a ``Resource`` per
slot, a ``sim.timeout`` per sleep, a process per DMA operation, stall and
steal), each DMA operation, stall and steal started in the dispatch that
issues it: it takes a free slot there and pushes its first sleep; a DMA
operation's last act fires its ``done``. Random
programs share FPCs, cores and shallow DMA queues, retry through a fault
hook, stall, steal and interrupt each other mid-hold and in the queue,
and are driven the three ways a caller can drive the kernel
(``tests/sim/drives.py``)."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.host import CpuCore
from repro.host.cpu import CAT_OTHER, CATEGORIES, CycleAccounting
from repro.nfp import DmaEngine, Fpc
from repro.sim import Event, Interrupt, Process, Resource, Simulator
from repro.sim.clock import CYCLES_2GHZ, CYCLES_800MHZ
from repro.sim.resources import Hold, ResourceRequest
from tests.sim.drives import DRIVES, unmarked

# -- the reference: the engines as processes ---------------------------------


class Started(Process):
    """A process started in the dispatch that creates it, not by a pushed
    start event: its body runs at once, up to the first event it yields, as
    no process, so that nothing it makes is taken on the spot — a sleep
    there is pushed."""

    __slots__ = ()

    def __init__(self, sim, generator, name):
        Event.__init__(self, sim)
        self._generator = generator
        self._resume_cb = self._resume
        self.name = name
        caller, sim._active_process = sim._active_process, None
        try:
            self._target = next(generator)
        finally:
            sim._active_process = caller
        self._target.callbacks.append(self._resume_cb)


def take(resource):
    """A free slot of ``resource`` held from now on, granted in place with
    no event, or None when none is free."""
    if len(resource._users) >= resource.capacity:
        return None
    grant = ResourceRequest.__new__(ResourceRequest)
    Event.__init__(grant, resource.sim)
    grant.resource = resource
    resource._users.add(grant)
    return grant


class RefFpc:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.cycles_to_ns = CYCLES_800MHZ.cycles_to_ns
        self._issue = Resource(sim, capacity=1)
        self.busy_cycles = 0
        self.stalls = 0
        self.stalled_ns = 0

    def stall(self, duration_ns):
        def _stall():
            grant = take(self._issue) or (yield self._issue.request())
            self.stalls += 1
            self.stalled_ns += duration_ns
            yield self.sim.timeout(duration_ns)
            grant.release()

        return Started(self.sim, _stall(), name="{}.stall".format(self.name))


class RefThread:
    def __init__(self, fpc):
        self.fpc = fpc
        self.sim = fpc.sim

    def compute(self, cycles):
        if cycles <= 0:
            return
        fpc = self.fpc
        grant = yield fpc._issue.request()
        yield fpc.sim.timeout(fpc.cycles_to_ns(cycles))
        fpc.busy_cycles += cycles
        grant.release()


class RefCore:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.clock = CYCLES_2GHZ
        self.accounting = CycleAccounting()
        self._slot = Resource(sim, capacity=1)
        self.busy_cycles = 0
        self.steals = 0
        self.stolen_ns = 0

    def run(self, cycles, category=CAT_OTHER):
        if cycles <= 0:
            return
        grant = yield self._slot.request()
        yield self.sim.timeout(self.clock.cycles_to_ns(cycles))
        self.accounting.charge(category, cycles)
        self.busy_cycles += cycles
        grant.release()

    def steal(self, duration_ns):
        def _steal():
            grant = take(self._slot) or (yield self._slot.request())
            self.steals += 1
            self.stolen_ns += duration_ns
            yield self.sim.timeout(duration_ns)
            grant.release()

        return Started(self.sim, _steal(), name="{}.steal".format(self.name))


class RefDma(DmaEngine):
    """The engine's arithmetic, with the process-per-operation it had."""

    def __init__(self, sim, **kwargs):
        super().__init__(sim, **kwargs)
        self._queues = [Resource(sim, capacity=kwargs["queue_depth"]) for _ in range(kwargs["n_queues"])]

    def issue(self, queue_id, nbytes):
        queue = self._queues[queue_id % len(self._queues)]
        done = self.sim.event()
        Started(self.sim, self._run(queue, nbytes, done), name="dma-op")
        return done

    def _run(self, queue, nbytes, done):
        grant = take(queue) or (yield queue.request())
        retry_ns = 0
        if self.fault_hook is not None:
            retry_ns = int(self.fault_hook(nbytes) or 0)
            if retry_ns > 0:
                self.transient_failures += 1
                self.retry_ns_total += retry_ns
                yield self.sim.timeout(retry_ns)
        start = max(self.sim.now, self._busy_until)
        finish = start + self.transfer_time_ns(nbytes)
        self._busy_until = finish
        yield self.sim.timeout(finish - self.sim.now + self.latency_ns)
        self.ops += 1
        self.bytes_moved += max(0, nbytes)
        grant.release()
        done.succeed()


# -- the engines as they are, behind the same calls --------------------------


class Engines:
    """Two FPCs, two cores and a two-queue DMA engine of one kind; the
    program calls each engine through a generator so both kinds are
    driven by the same code."""

    DMA = dict(n_queues=2, queue_depth=2, latency_ns=3, bandwidth_bps=8_000_000_000)

    def __init__(self, sim, reference, log, seed):
        self.reference = reference
        if reference:
            self.fpcs = [RefFpc(sim, "fpc%d" % i) for i in range(2)]
            self.threads = [RefThread(fpc) for fpc in self.fpcs]
            self.cores = [RefCore(sim, "core%d" % i) for i in range(2)]
            self.dma = RefDma(sim, **self.DMA)
        else:
            self.fpcs = [Fpc(sim, "fpc%d" % i) for i in range(2)]
            self.cores = [CpuCore(sim, "core%d" % i) for i in range(2)]
            self.dma = DmaEngine(sim, **self.DMA)
        rng = random.Random(seed)

        def flaky(nbytes):
            # Drawn at grant time: a draw moved anywhere else moves the log.
            retry = rng.choice((0, 0, 1, 4))
            log.append((sim.now, "hook", (nbytes, retry)))
            return retry

        self.dma.fault_hook = flaky

    def hold(self, index, cycles):
        """What an FPC thread's ``charge`` holds: its issue slot."""
        if self.reference:
            yield from self.threads[index].compute(cycles)
        elif cycles > 0:
            fpc = self.fpcs[index]
            yield Hold(fpc.issue_slot, fpc.cycles_to_ns(cycles), cycles)

    def compute(self, index, cycles):
        yield from self.hold(index, cycles)
        return ("computed", index, self.fpcs[index].busy_cycles)

    def read(self, index, latency, issue):
        fpc = self.fpcs[index]
        yield from self.hold(index, issue)
        yield fpc.sim.timeout(fpc.cycles_to_ns(latency))
        return ("read", index, fpc.busy_cycles)

    def run(self, index, cycles, category):
        core = self.cores[index]
        if self.reference:
            yield from core.run(cycles, category)
        else:
            yield core.run(cycles, category)
        return ("ran", index, core.busy_cycles, core.accounting.cycles[category])

    def counters(self):
        return (
            [(fpc.busy_cycles, fpc.stalls, fpc.stalled_ns) for fpc in self.fpcs],
            [(core.busy_cycles, dict(core.accounting.cycles), core.steals, core.stolen_ns) for core in self.cores],
            (self.dma.ops, self.dma.bytes_moved, self.dma.transient_failures, self.dma.retry_ns_total,
             self.dma._busy_until),
        )

    def slots(self):
        """(held, waiting) per slot: a leaked slot must leak on both sides."""
        if self.reference:
            resources = [fpc._issue for fpc in self.fpcs] + [core._slot for core in self.cores] + self.dma._queues
            return [(len(r._users), len(r._queue)) for r in resources]
        slots = [fpc.issue_slot for fpc in self.fpcs] + [core.slot for core in self.cores] + self.dma._queues
        return [(s.in_use, len(s._waiting)) for s in slots]


_CYCLES = st.integers(min_value=0, max_value=12)
_OP = st.one_of(
    st.tuples(st.just("compute"), st.integers(0, 1), _CYCLES),
    st.tuples(st.just("mem"), st.integers(0, 1), st.integers(0, 8), st.integers(0, 3)),
    st.tuples(st.just("run"), st.integers(0, 1), _CYCLES, st.sampled_from(CATEGORIES[:3])),
    st.tuples(st.just("dma"), st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.just("dma-async"), st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.just("stall"), st.integers(0, 1), st.integers(0, 6)),
    st.tuples(st.just("steal"), st.integers(0, 1), st.integers(0, 6)),
    st.tuples(st.just("sleep"), st.integers(0, 4)),
    st.tuples(st.just("meet"), st.integers(0, 1)),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
)
_PROGRAM = st.lists(st.lists(_OP, max_size=8), min_size=1, max_size=6)
_SENTINEL = st.lists(
    st.one_of(st.tuples(st.just("sleep"), st.integers(0, 4)), st.tuples(st.just("meet"), st.integers(0, 1))),
    max_size=4,
)
_SLICES = st.lists(st.integers(min_value=0, max_value=40), max_size=6)


def _waiting(process):
    """Whether ``process`` waits on an event it can be taken off. (The
    kernel resumes a process twice when it is interrupted before its first
    yield, or while the dispatch that resumes it is running.)"""
    target = process._target
    return process.is_alive and target is not None and process._resume_cb in (target.callbacks or ())


def transcript(reference, program, sentinel_ops, drive, slices=(), seed=0):
    """Run ``program`` on one kind of engines under ``drive``; returns the
    ``(now, pid, value)`` log, the events dispatched, the counters and the
    slots' state."""
    sim = Simulator()
    log = []
    engines = Engines(sim, reference, log, seed)
    meetings = [sim.timeout(2, value="m0"), sim.timeout(5, value="m1")]
    processes = []

    def step(pid, op):
        kind = op[0]
        if kind == "compute":
            return (yield from engines.compute(op[1], op[2]))
        if kind == "mem":
            return (yield from engines.read(op[1], op[2], op[3]))
        if kind == "run":
            return (yield from engines.run(op[1], op[2], op[3]))
        if kind == "dma":
            yield engines.dma.issue(op[1], op[2])
            return ("dma", engines.dma.ops)
        if kind == "dma-async":
            engines.dma.issue(op[1], op[2])
            return "issued"
        if kind == "stall":
            engines.fpcs[op[1]].stall(op[2])
            return "stalling"
        if kind == "steal":
            engines.cores[op[1]].steal(op[2])
            return "stealing"
        if kind == "sleep":
            return (yield sim.timeout(op[1], value="slept"))
        if kind == "meet":
            return (yield meetings[op[1]])
        target = op[1]
        if target < len(processes) and _waiting(processes[target]):
            processes[target].interrupt(pid)
            return ("interrupted", target)
        return "no one to interrupt"

    def body(pid, ops):
        for op in ops:
            try:
                value = yield from step(pid, op)
            except Interrupt as interrupt:
                value = ("was interrupted by", interrupt.cause)
            log.append((sim.now, pid, value))
        return pid

    sentinel = sim.process(body("sentinel", sentinel_ops))
    for pid, ops in enumerate(program):
        processes.append(sim.process(body(pid, ops)))
    drive(sim, sentinel, slices, log)
    return log, sim.processed_events, engines.counters(), engines.slots()


@settings(max_examples=200, deadline=None)
@given(_PROGRAM, _SENTINEL, _SLICES, st.integers(0, 3))
# Two threads on one FPC; the second is interrupted while queued, then the
# first while it holds the slot: both slots leak, as they did.
@example([[("compute", 0, 8)], [("compute", 0, 8)], [("sleep", 1), ("interrupt", 1), ("interrupt", 0)]], [], [], 0)
# Three DMA operations through a two-deep queue, with retries.
@example([[("dma", 0, 4), ("dma", 0, 4)], [("dma", 2, 4)], [("stall", 0, 3), ("compute", 0, 4)]], [], [3], 1)
# A steal and a run queued behind a run, sliced mid-hold.
@example([[("run", 0, 6, "app"), ("steal", 0, 5), ("run", 0, 6, "tcp")], [("run", 0, 2, "tcp")]], [("meet", 0)], [2, 4], 0)
def test_engines_push_what_their_processes_pushed(program, sentinel_ops, slices, seed):
    runs = set()
    for drive in DRIVES:
        reference = transcript(True, program, sentinel_ops, drive, slices, seed)
        observed = transcript(False, program, sentinel_ops, drive, slices, seed)
        assert observed == reference, drive.__name__
        runs.add(unmarked(observed[0]))
    assert len(runs) == 1  # one run, however it was driven
