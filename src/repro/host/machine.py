"""A machine: cores + memory."""

from repro.host.cpu import CpuCore
from repro.host.memory import HostMemory
from repro.sim.clock import CYCLES_2GHZ


class Machine:
    """A testbed host (e.g. the 20-core Xeon Gold 6138 server)."""

    def __init__(self, sim, name, n_cores=20, clock=CYCLES_2GHZ, n_hugepages=4):
        self.sim = sim
        self.name = name
        self.clock = clock
        self.cores = [
            CpuCore(sim, "{}.core{}".format(name, i), clock=clock) for i in range(n_cores)
        ]
        self.memory = HostMemory(n_hugepages=n_hugepages)

    def aggregate_accounting(self):
        """Merged cycle accounting across all cores."""
        from repro.host.cpu import CycleAccounting

        total = CycleAccounting()
        for core in self.cores:
            total.merge(core.accounting)
        return total

    def __repr__(self):
        return "<Machine {} cores={}>".format(self.name, len(self.cores))
