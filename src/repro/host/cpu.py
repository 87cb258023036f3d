"""Host CPU cores with categorized cycle accounting.

Costs are charged in cycles at the core clock (default 2 GHz, the
testbed's Xeon Gold 6138). Categories mirror Table 1's row labels.
"""

from repro.sim import Resource
from repro.sim.clock import CYCLES_2GHZ

CAT_DRIVER = "driver"
CAT_TCP = "tcp"
CAT_SOCKETS = "sockets"
CAT_APP = "app"
CAT_OTHER = "other"

CATEGORIES = (CAT_DRIVER, CAT_TCP, CAT_SOCKETS, CAT_APP, CAT_OTHER)


class CycleAccounting:
    """Per-category cycle counters (aggregable across cores)."""

    def __init__(self):
        self.cycles = {category: 0 for category in CATEGORIES}

    def charge(self, category, cycles):
        if category not in self.cycles:
            self.cycles[category] = 0
        self.cycles[category] += cycles

    def total(self):
        return sum(self.cycles.values())

    def merge(self, other):
        for category, cycles in other.cycles.items():
            self.charge(category, cycles)

    def breakdown(self):
        """{category: (cycles, percent)} over the recorded total."""
        total = self.total() or 1
        return {
            category: (cycles, 100.0 * cycles / total)
            for category, cycles in self.cycles.items()
        }

    def __repr__(self):
        return "<CycleAccounting total={}>".format(self.total())


class CpuCore:
    """One host hardware thread.

    ``yield from core.run(cycles, category)`` charges cycles and blocks
    the core for their duration. The core is a capacity-1 resource, so
    two software threads pinned to it serialize (used by the Linux
    baseline's lock-contention model).
    """

    def __init__(self, sim, name, clock=CYCLES_2GHZ):
        self.sim = sim
        self.name = name
        self.clock = clock
        self.accounting = CycleAccounting()
        self._slot = Resource(sim, capacity=1, name="{}.slot".format(name))
        self.busy_cycles = 0
        self.steals = 0
        self.stolen_ns = 0

    def run(self, cycles, category=CAT_OTHER):
        """Execute ``cycles`` of work attributed to ``category``."""
        if cycles <= 0:
            return
        grant = yield self._slot.request()
        yield self.sim.timeout(self.clock.cycles_to_ns(cycles))
        self.accounting.charge(category, cycles)
        self.busy_cycles += cycles
        grant.release()

    def steal(self, duration_ns):
        """Occupy the core for ``duration_ns`` (fault injection: jitter).

        Models a noisy neighbor, SMI, or kernel housekeeping burst that
        preempts whatever software thread is pinned here. The stolen
        time is not charged to any accounting category. Returns the
        stealing process.
        """

        def _steal():
            grant = yield self._slot.request()
            self.steals += 1
            self.stolen_ns += duration_ns
            yield self.sim.timeout(duration_ns)
            grant.release()

        return self.sim.process(_steal(), name="{}.steal".format(self.name))

    def utilization(self, elapsed_ns):
        if elapsed_ns <= 0:
            return 0.0
        total = self.clock.ns_to_cycles(elapsed_ns)
        return min(1.0, self.busy_cycles / total) if total else 0.0

    def __repr__(self):
        return "<CpuCore {}>".format(self.name)
