"""How ``make opcodes`` names a dispatched event, sizes a workload, counts
heap pushes and withdrawn timers through the judge's kernel hooks and
process resumes by program (measurement code is code)."""

from perf import workloads
from repro.nfp import Fpc
from repro.nfp.fpc import Chain
from repro.sim import Simulator, Timeout
from repro.sim.resources import Hold, Slots
from tests.tools.judge import ROOT, KernelHooks
from tests.tools.opcodes import BENCH, TINY, WITHDRAWN, ResumeCounter, Tally, code_name, dispatch_key, sizes

HERE = "tests/tools/test_opcodes.py"


def _parked_events(sim):
    return [entry[3] for entry in sorted(sim._heap)]


def test_an_event_is_named_by_its_class_and_the_innermost_yield_site_it_resumes():
    sim = Simulator()
    gate = sim.event()

    def wait():
        yield Timeout(sim, 5)

    def program():
        yield from wait()
        yield sim.any_of([gate, Timeout(sim, 5)])

    sim.process(program())
    (start,) = _parked_events(sim)
    assert dispatch_key(start, ROOT).startswith("Initialize {} ".format(HERE))
    sim.run(until=0)
    (sleep,) = _parked_events(sim)
    assert dispatch_key(sleep, ROOT) == "Timeout {} {}+1".format(HERE, code_name(wait.__code__))
    sim.run(until=5)
    (member,) = _parked_events(sim)
    # A condition's member wakes the condition, which wakes the process.
    assert dispatch_key(member, ROOT) == "Timeout Condition <- {} {}+2".format(HERE, code_name(program.__code__))


def test_an_event_is_named_by_the_last_process_it_resumes():
    # A hold's end charges and hands on its slot before the holder
    # resumes: it is named by where the holder waits, not by that step.
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    Timeout(sim, 5)  # due before the hold would end: the end is pushed

    def program():
        yield Hold(fpc.issue_slot, fpc.cycles_to_ns(8), 8)

    sim.process(program())
    sim.run(until=0)
    _timer, end = _parked_events(sim)
    assert end.callbacks[0].__self__ is end
    assert dispatch_key(end, ROOT) == "Hold {} {}+1".format(HERE, code_name(program.__code__))


def test_an_event_without_a_process_is_named_by_its_callback():
    sim = Simulator()

    def deliver(_event):
        pass

    Timeout(sim, 1).callbacks.append(deliver)
    Timeout(sim, 2)
    callback, nothing = _parked_events(sim)
    assert dispatch_key(callback, ROOT) == "Timeout {} {}+0".format(HERE, code_name(deliver.__code__))
    assert dispatch_key(nothing, ROOT) == "Timeout (no callback)"


def test_a_dispatch_into_a_fired_condition_is_dead():
    sim = Simulator()

    def program():
        yield sim.any_of([Timeout(sim, 1), Timeout(sim, 5)])

    sim.process(program())
    sim.run(until=0)
    first, _late = _parked_events(sim)
    assert not dispatch_key(first, ROOT).endswith(" (dead)")
    sim.run(until=1)  # the first member fires the AnyOf, queued, which resumes the process
    (late,) = _parked_events(sim)
    assert dispatch_key(late, ROOT).endswith(" (dead)")


def test_a_queued_entry_is_named_as_a_heap_event_is():
    # What the kernel queues for now is named by the same key it would
    # have had in the heap; count() tallies it apart, under QUEUED.
    sim = Simulator()
    gate = sim.event()

    def program():
        yield gate

    sim.process(program())
    sim.run(until=0)
    gate.succeed()
    (entry,) = sim._queue
    assert dispatch_key(entry[3], ROOT) == "Event {} {}+1".format(HERE, code_name(program.__code__))


def test_the_bench_size_is_what_the_benchmark_runs():
    assert sizes("echo-small", TINY) == workloads.TINY["echo-small"]
    assert sizes("large-loss", BENCH) == {}  # each workload's defaults: what perf/run.py runs


def test_a_heap_push_is_counted_and_a_queued_entry_is_not():
    sim = Simulator()
    slots = Slots(sim)

    def program():
        Timeout(sim, 1)
        yield Timeout(sim, 0)  # queued
        yield Hold(slots, 2, 2)  # the timeout is due before it ends: its end is pushed, by sim/resources.py

    pushes = []
    sim.process(program())
    with KernelHooks(heappush=lambda kernel_push, heap, entry: pushes.append(kernel_push(heap, entry))):
        sim.run()
    assert len(pushes) == 2 and sim.now == 2
    Timeout(sim, 1)  # after the count: the kernel's own push again
    assert len(pushes) == 2


def test_process_resumes_are_counted_by_program_and_a_chain_resumes_none():
    sim = Simulator()
    with ResumeCounter() as counter:

        def program():
            yield Timeout(sim, 1)
            yield Timeout(sim, 2)

        sim.process(program(), name="app")
        Chain(sim, "chain").start(lambda chain, _value: chain.sleep(3, lambda _chain, _value: False))
        sim.run()
    assert sim.now == 3
    assert counter.resumes == {"app": 3}  # its start and its two timeouts; the chain's three entries are none


def test_a_chain_entry_is_named_by_the_step_it_goes_on_with():
    sim = Simulator()

    def slept(_chain, _value):
        return False

    Chain(sim, "chain").start(lambda chain, _value: chain.sleep(3, slept))
    sim.run(until=0)
    (entry,) = _parked_events(sim)
    assert dispatch_key(entry, ROOT) == "Step {} {}+0".format(HERE, code_name(slept.__code__))


def test_a_withdrawn_timer_is_counted_as_withdrawn_never_as_an_event():
    sim = Simulator()

    def kept(_step):
        pass

    def withdrawn(_step):
        pass

    tally = Tally(ROOT)
    with tally.hooks():
        sim._timer(3, kept)
        sim._withdraw(sim._timer(2, withdrawn))
        sim.run()
    assert sim.processed_events == 1 and tally.pushes == 2
    assert tally.sites == {
        "Step {} {}+0".format(HERE, code_name(kept.__code__)): 1,
        WITHDRAWN + "Step {} {}+0".format(HERE, code_name(withdrawn.__code__)): 1,
    }
