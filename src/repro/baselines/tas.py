"""The TAS kernel-bypass accelerator personality (Kaufmann et al.).

A protected fast path on dedicated host cores handles common-case TCP;
applications use per-core context queues without kernel calls. Low
per-request cost and good scaling (Figs 9/14), go-back-N recovery with
out-of-order drop (Fig 15)."""

from repro.baselines.costs import TAS_COSTS
from repro.baselines.engine import TcpEngineConfig
from repro.baselines.stack import BaselineHost, Personality


class TasPersonality(Personality):
    name = "tas"

    def __init__(self, fast_path_cores=4):
        config = TcpEngineConfig(
            recovery="gbn",
            reassembly="drop",
            delayed_ack_segments=1,
            rto_ns=1_000_000,
            min_rto_ns=500_000,
        )
        super().__init__(TAS_COSTS, config)
        self.dedicated_cores = fast_path_cores
        self.rx_dispatchers = fast_path_cores


def add_tas_host(testbed, name, n_cores=20, fast_path_cores=4, **attach_kwargs):
    """Attach a TAS host. The fast path claims the machine's last cores;
    application work should use the earlier ones."""
    mac, ip = testbed.addresses()
    attach_kwargs.setdefault("mac", mac)
    attach_kwargs.setdefault("ip", ip)
    host = BaselineHost(
        testbed.sim,
        testbed,
        name,
        TasPersonality(fast_path_cores=fast_path_cores),
        n_cores=n_cores,
        **attach_kwargs
    )
    testbed.add_host(name, host)
    return host
