"""Baseline TCP stacks: Linux, TAS, and the Chelsio Terminator TOE.

All three are one :class:`BaselineHost` over one software TCP engine
(:mod:`repro.baselines.engine`) that speaks the same wire format as
FlexTOE over the simulated network; a :class:`Personality` record
(``LINUX``, ``TAS``, ``CHELSIO``) holds what differs in the paper's
analysis — its cycle costs, its engine's TCP rules, and where protocol
work runs:

* **Linux** — in-kernel: syscall/driver/kernel cycle costs (Table 1),
  a coarse kernel lock that throttles multi-core scaling (Fig 9),
  SACK-based recovery + full reassembly (most loss-robust, Fig 15b),
  delayed ACKs, interrupt latency.
* **TAS** — kernel-bypass fast path on dedicated cores, per-core context
  queues (scales like FlexTOE), go-back-N with OOO drop, low latency.
* **Chelsio TOE** — TCP on the NIC (host cycles only for the kernel
  driver + sockets), 100 Gbps unidirectional streaming strength, but
  RTO-only recovery (Fig 15 collapse) and epoll-bound connection
  scalability.
"""

from repro.baselines.engine import HostTcpEngine, TcpEngineConfig
from repro.baselines.stack import (
    CHELSIO,
    LINUX,
    TAS,
    BaselineContext,
    BaselineHost,
    BaselineSocket,
    Personality,
    add_baseline_host,
    add_chelsio_host,
    add_linux_host,
    add_tas_host,
)

__all__ = [
    "BaselineContext",
    "BaselineHost",
    "BaselineSocket",
    "CHELSIO",
    "HostTcpEngine",
    "LINUX",
    "Personality",
    "TAS",
    "TcpEngineConfig",
    "add_baseline_host",
    "add_chelsio_host",
    "add_linux_host",
    "add_tas_host",
]
