"""Every ``repro`` name the benchmark uses, imported in one place.

The benchmark measures the simulator from outside, through these public
names only. A PR that moves or renames one of them sees here what it
must keep (or update in the same change). Nothing else under ``perf/``
imports from ``repro`` directly.
"""

from repro.apps import EchoServer
from repro.baselines import add_chelsio_host, add_linux_host, add_tas_host
from repro.control import ControlPlaneConfig
from repro.faults import FaultPlan, describe_frame
from repro.faults.events import WireFault
from repro.faults.invariants import counters_snapshot
from repro.flextoe.module import ModuleChain
from repro.flextoe.state import CONN_SLAB
from repro.harness import Testbed
from repro.libtoe.epoll import EventPoll
from repro.proto import str_to_ip
from repro.xdp import XdpAdapter
from repro.xdp.builtins.firewall import BLACKLIST_FD, block_ip, firewall_asm_program

__all__ = [
    "BLACKLIST_FD",
    "CONN_SLAB",
    "ControlPlaneConfig",
    "EchoServer",
    "EventPoll",
    "FaultPlan",
    "ModuleChain",
    "Testbed",
    "WireFault",
    "XdpAdapter",
    "add_chelsio_host",
    "add_linux_host",
    "add_tas_host",
    "block_ip",
    "counters_snapshot",
    "describe_frame",
    "firewall_asm_program",
    "str_to_ip",
]
