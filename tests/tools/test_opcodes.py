"""How ``make opcodes`` names a dispatched event (measurement code is code)."""

from repro.nfp import Fpc
from repro.nfp.fpc import FpcThread
from repro.sim import Simulator, Timeout
from tests.tools.opcodes import ROOT, code_name, dispatch_key

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
    sim.step()
    (sleep,) = _parked_events(sim)
    assert dispatch_key(sleep, ROOT) == "Timeout {} {}+1".format(HERE, code_name(wait.__code__))
    sim.step()
    (member,) = _parked_events(sim)
    # A condition's member wakes the condition, which wakes the process.
    assert dispatch_key(member, ROOT) == "Timeout AnyOf <- {} {}+2".format(HERE, code_name(program.__code__))


def test_an_event_is_named_by_the_last_process_it_resumes():
    # A hold's end charges and hands on its slot before the holder
    # resumes: it is named by where the holder waits, not by that step.
    sim = Simulator()
    thread = FpcThread(Fpc(sim, "fpc0"), 0)
    Timeout(sim, 5)  # due before the hold would end: the end is pushed

    def program():
        yield thread.compute(8)

    sim.process(program())
    sim.step()
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
    sim.step()
    first, _late = _parked_events(sim)
    assert not dispatch_key(first, ROOT).endswith(" (dead)")
    sim.step()  # the first member fires the AnyOf, queued, which resumes the process
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
    sim.step()
    gate.succeed()
    (entry,) = sim._queue
    assert dispatch_key(entry[3], ROOT) == "Event {} {}+1".format(HERE, code_name(program.__code__))
