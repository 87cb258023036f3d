"""Simulated network fabric: ports, links, switch, loss injection.

The testbed (paper §5) is two-to-six machines connected through a 100 Gbps
Ethernet switch. Here ports and links move :class:`~repro.proto.Frame`
objects with serialization + propagation delay; the switch adds bounded
output queues, ECN marking, WRED, per-port shaping (for the incast
experiment) and one ingress hook, ``switch.faults``, which a fault plan
or the random :class:`LossInjector` (the robustness experiments) fills.
"""

from repro.net.link import Link, Port
from repro.net.loss import LossInjector
from repro.net.switch import Switch, SwitchPortConfig
from repro.net.topology import Topology

__all__ = ["Link", "LossInjector", "Port", "Switch", "SwitchPortConfig", "Topology"]
