"""How ``make opcodes`` names a dispatched event (measurement code is code)."""

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


def test_an_event_without_a_process_is_named_by_its_callback():
    sim = Simulator()

    def deliver(_event):
        pass

    Timeout(sim, 1).callbacks.append(deliver)
    Timeout(sim, 2)
    callback, nothing = _parked_events(sim)
    assert dispatch_key(callback, ROOT) == "Timeout {} {}+0".format(HERE, code_name(deliver.__code__))
    assert dispatch_key(nothing, ROOT) == "Timeout (no callback)"
