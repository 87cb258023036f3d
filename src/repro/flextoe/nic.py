"""The FlexTOE NIC: chip + data-path + the interfaces the host sees.

:class:`FlexToeNic` is what experiments instantiate: it owns an
:class:`~repro.nfp.Nfp4000`, wires the data-path, and exposes

* the network attachment (``attach_port``),
* the libTOE interface (contexts, doorbells, notifications),
* the control-plane interface (connection install/remove, raw frame
  TX/RX, congestion statistics, scheduler rate programming).
"""

from repro.flextoe.config import PipelineConfig
from repro.flextoe.datapath import FlexToeDatapath
from repro.flextoe.scheduler import rate_to_interval_q8
from repro.flextoe.state import ProtoInstall, install_row
from repro.nfp import Nfp4000
from repro.nfp.cam import crc32_tuple
from repro.sim import Store


class FlexToeNic:
    """A FlexTOE-programmed SmartNIC."""

    def __init__(self, sim, config=None, chip=None, capture=None, ingress_modules=None, local_mac=0, local_ip=0):
        self.sim = sim
        # The host's addresses: every data path this NIC boots sends from
        # them, and every connection it offloads has ``local_ip`` as its
        # local end.
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.config = config or PipelineConfig.full()
        self.chip = chip or Nfp4000(sim)
        self._capture = capture
        self._ingress_modules = ingress_modules
        # Host-memory control ring: survives data-path reboots so the
        # control plane's RX loop never has to re-subscribe.
        self._control_ring = Store(sim, name="to-control")
        self.port = None
        self.reboots = 0
        self.control_tx_dropped = 0
        self._snapshot_writer = None
        self._snapshot_interval_ns = None
        self.datapath = self._build_datapath()

    def _build_datapath(self):
        return FlexToeDatapath(
            self.sim,
            self.chip,
            self.config,
            self.local_mac,
            self.local_ip,
            capture=self._capture,
            ingress_modules=self._ingress_modules,
            control_ring=self._control_ring,
        )

    # -- network ----------------------------------------------------------

    def attach_port(self, port):
        self.port = port
        self.chip.mac.attach_port(port)

    # -- failure / recovery ---------------------------------------------------

    @property
    def crashed(self):
        return self.datapath.crashed

    def crash(self):
        """Hard-stop the data path (see FlexToeDatapath.crash)."""
        self.datapath.crash()

    def reboot(self):
        """Tear down the dead chip and bring up a fresh data path.

        Host shared memory survives: existing context queue pairs are
        re-bound into the new datapath and the control ring is reused.
        All NIC-internal connection state is gone — the control plane
        must re-offload every connection from its shadow."""
        self.crash()  # idempotent quiesce of whatever is still running
        old = self.datapath
        self.chip = Nfp4000(self.sim, config=self.chip.config)
        self.datapath = self._build_datapath()
        self.datapath.observer = old.observer  # the host is still watching
        for pair in old.contexts.values():
            self.datapath.adopt_context(pair)
        if self.port is not None:
            self.attach_port(self.port)
        if self._snapshot_writer is not None:
            self.datapath.enable_state_snapshots(
                self._snapshot_writer, self._snapshot_interval_ns
            )
        self.reboots += 1

    def read_heartbeats(self):
        """Watchdog MMIO sample of the stage-group heartbeat board.

        One sequence per ``(stage_kind, slot)`` in ``stage_fpcs``, derived
        from the clock. A crashed chip still returns the board, frozen at
        the crash instant — the watchdog detects failure by the beats
        not advancing, not by read errors."""
        return self.datapath.heartbeats.snapshot()

    def enable_state_snapshots(self, writer, interval_ns):
        """Arrange the periodic NIC->host state DMA (survives reboots)."""
        self._snapshot_writer = writer
        self._snapshot_interval_ns = interval_ns
        self.datapath.enable_state_snapshots(writer, interval_ns)

    # -- libTOE interface ----------------------------------------------------

    def register_context(self, context_id, capacity=1024):
        return self.datapath.register_context(context_id, capacity)

    def context_pair(self, context_id):
        """The (host-memory) queue pair for a context, or None."""
        return self.datapath.contexts.get(context_id)

    def post_hc(self, context_id, descriptor):
        return self.datapath.post_hc(context_id, descriptor)

    # -- control-plane interface ----------------------------------------------

    def offload_connection(
        self,
        index,
        four_tuple,
        peer_mac,
        iss,
        irs,
        context_id,
        opaque,
        rx_buffer,
        tx_buffer,
        remote_win=0xFFFF,
        proto=None,
    ):
        """Install data-path state for an established connection (§3.4).

        ``rx_buffer``/``tx_buffer`` are (region, base_addr, size) triples
        from the host hugepage pool. ``proto`` carries a recovered
        connection's protocol fields (a ``ProtoInstall`` reconstructed
        from its shadow) in place of the fresh post-handshake ones
        ``iss``/``irs``/``remote_win`` describe. The install is one row
        write and no object; returns ``index`` (``connection(index)`` is
        the record, made when first asked for). The connection's local
        end is this NIC: ``four_tuple`` starts with its ``local_ip``.
        """
        if four_tuple[0] != self.local_ip:
            raise ValueError("{:#x} is not this NIC's address {:#x}".format(four_tuple[0], self.local_ip))
        crc = crc32_tuple(*four_tuple)
        slot = install_row(
            four_tuple,
            peer_mac,
            self.config.flow_group_of(four_tuple, crc),
            proto or ProtoInstall(iss, irs, rx_buffer[2], remote_win),
            context_id,
            opaque,
            rx_buffer,
            tx_buffer,
        )
        self.datapath.install_connection(index, slot, four_tuple, crc)
        return index

    def allocate_connection_index(self):
        return self.datapath.conn_table.allocate_index()

    def remove_connection(self, index):
        return self.datapath.remove_connection(index)

    def connection(self, index):
        return self.datapath.conn_table.get(index)

    def control_rx_ring(self):
        """Frames the data-path diverted to the control plane."""
        return self._control_ring

    def control_tx(self, frame):
        """Control-plane raw transmit (handshakes, RST), bypassing the
        data pipeline. A crashed NIC silently eats the frame (posted
        MMIO gives the host no error); recovery routes around this via
        the slow-path shim."""
        if self.datapath.crashed:
            self.control_tx_dropped += 1
            return
        self.datapath.nic_transmit_direct(frame)

    def read_cc_stats(self, index):
        """Control-plane poll of a connection's congestion statistics.

        Folds the replicated post stages' private RTT accumulators into
        the EWMA first, so the estimate reflects samples up to this poll.
        """
        record = self.datapath.conn_table.get(index)
        if record is None:
            return None
        self.datapath.drain_rtt(record)
        return record.post.take_cc_stats()

    def set_flow_rate(self, index, bytes_per_sec):
        """Program the flow scheduler's pacing interval via MMIO."""
        self.datapath.scheduler.set_interval(index, rate_to_interval_q8(bytes_per_sec))

    @property
    def scheduler(self):
        return self.datapath.scheduler

    @property
    def tracepoints(self):
        return self.datapath.tracepoints
