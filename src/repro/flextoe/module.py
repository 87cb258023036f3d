"""The FlexTOE module API (paper §3.3).

Data-path extension modules get one-shot access to segments plus
metadata, keep private state, and communicate only by forwarding
metadata. Modules are inserted at named hook points; replicated hooks
are automatically re-sequenced afterwards (§3.2), which the datapath
wiring handles.

Two module flavors, as in the paper:

* Native modules — subclasses of :class:`DatapathModule`; ``handle``
  returns an action and charges the class's fixed ``cost_cycles``.
* XDP modules — eBPF programs (see :mod:`repro.xdp`) loaded through
  :class:`repro.xdp.XdpAdapter`: verified, certified and JIT-compiled,
  returning XDP_PASS/DROP/TX/REDIRECT and charged per instruction
  executed.
"""

ACTION_PASS = "pass"
ACTION_DROP = "drop"
ACTION_TX = "tx"
ACTION_REDIRECT = "redirect"

#: Hook points in the data-path.
HOOK_INGRESS = "ingress"  # raw frames before pre-processing
HOOK_EGRESS = "egress"  # frames on their way to the NBI


class DatapathModule:
    """Base class for native data-path modules.

    ``handle(frame, meta)`` returns one of the ACTION_* constants; the
    frame may be modified in place (one-shot access). ``cost_cycles`` is
    charged on the hosting FPC per invocation.
    """

    name = "module"
    cost_cycles = 30

    def handle(self, frame, meta):
        raise NotImplementedError

    def reset(self):
        """Clear private state (module reload)."""


class NullModule(DatapathModule):
    """Passes every frame; measures raw hook overhead (Table 2's
    'XDP (null)' row runs the eBPF program ``xdp.builtins.null``)."""

    name = "null"
    cost_cycles = 15

    def handle(self, frame, meta):
        return ACTION_PASS


class CountingModule(DatapathModule):
    """Counts frames per TCP flag pattern; a minimal stats example."""

    name = "counter"
    cost_cycles = 20

    def __init__(self):
        self.counts = {}

    def handle(self, frame, meta):
        key = frame.tcp.flags if frame.tcp is not None else -1
        self.counts[key] = self.counts.get(key, 0) + 1
        return ACTION_PASS

    def reset(self):
        self.counts.clear()


class VlanStripModule(DatapathModule):
    """Strips 802.1Q tags on ingress: the frame-shrinking strip the
    in-place eBPF program ``xdp.builtins.vlan`` cannot do."""

    name = "vlan-strip"
    cost_cycles = 25

    def __init__(self):
        self.stripped = 0

    def handle(self, frame, meta):
        if frame.eth.vlan is not None:
            frame.eth.vlan = None
            frame.eth.vlan_pcp = 0
            self.stripped += 1
        return ACTION_PASS


class ModuleChain:
    """An ordered list of modules at one hook point."""

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
