"""The FlexTOE control plane (paper §3.4).

Runs in its own protection domain (host cores or SmartNIC control CPUs)
and owns everything the one-shot data-path cannot do: ARP, the TCP
connection state machine (handshake/teardown), retransmission timeouts,
zero-window probes, per-flow congestion control (DCTCP / TIMELY), and
admission (a host-wide connection limit,
``ControlPlaneConfig(max_connections=)``).
"""

from repro.control.cc import CongestionControl, Dctcp, Timely
from repro.control.plane import ControlPlane, ControlPlaneConfig
from repro.control.recovery import ConnShadow, RecoveryManager, SlowPathShim, reconstruct_protocol_state
from repro.control.splice import SpliceError, SpliceManager

__all__ = [
    "CongestionControl",
    "ConnShadow",
    "ControlPlane",
    "ControlPlaneConfig",
    "Dctcp",
    "RecoveryManager",
    "SpliceError",
    "SpliceManager",
    "SlowPathShim",
    "Timely",
    "reconstruct_protocol_state",
]
