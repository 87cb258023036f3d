"""The FlexTOE module API (paper §3.3).

Data-path extension modules get one-shot access to segments plus
metadata, keep private state, and communicate only by forwarding
metadata. The NIC has one hook point, ingress: the pre-processing
stage runs its chain (``FlexToeNic(ingress_modules=)``) on every
received frame before validation, and the RX GRO re-sequences what
passes (§3.2).

One flavor ships: XDP modules — eBPF programs (see :mod:`repro.xdp`)
loaded through :class:`repro.xdp.XdpAdapter`, the :class:`DatapathModule`
that runs them: verified and JIT-compiled, returning
XDP_PASS/DROP/TX/REDIRECT and charged per instruction executed.
"""

ACTION_PASS = "pass"
ACTION_DROP = "drop"
ACTION_TX = "tx"
ACTION_REDIRECT = "redirect"


class DatapathModule:
    """What a hook point runs.

    ``handle(frame, meta)`` returns one of the ACTION_* constants; the
    frame may be modified in place (one-shot access). ``cost_cycles`` is
    charged on the hosting FPC per invocation.
    """

    name = "module"
    cost_cycles = 30

    def handle(self, frame, meta):
        raise NotImplementedError


class ModuleChain:
    """An ordered list of modules at the hook point."""

    def __init__(self, modules=None):
        self.modules = list(modules or [])

    def add(self, module):
        self.modules.append(module)

    def remove(self, name):
        self.modules = [m for m in self.modules if m.name != name]

    @property
    def total_cost(self):
        return sum(m.cost_cycles for m in self.modules)

    def run(self, frame, meta):
        """Run the chain; returns the first non-PASS action (or PASS)."""
        for module in self.modules:
            action = module.handle(frame, meta)
            if action != ACTION_PASS:
                return action
        return ACTION_PASS

    def __len__(self):
        return len(self.modules)
