"""Data-path failure recovery: watchdog, shadow snapshot, re-offload.

FlexTOE's split — host control plane owns everything exceptional, NIC
data path owns the common case — only pays off if the host can *recover*
the data path when it dies. This module adds the three pieces:

* **Watchdog** — every FPC stage group's heartbeat sequence number
  advances with the clock until ``crash()`` freezes it (derived on read
  by :class:`repro.flextoe.state.HeartbeatBoard`); the
  :class:`RecoveryManager` samples it over MMIO on a fixed grid from the
  freeze on (a live sample is the identity) and declares the data path
  failed after ``WATCHDOG_MISS_THRESHOLD`` consecutive beatless samples.

* **Connection-state shadow + re-offload** — the control plane cannot
  read a dead chip, so every connection's recoverable state must be
  derivable from host-visible memory. :class:`ConnShadow` mirrors each
  flow from the context-queue traffic itself (taps on
  :class:`~repro.flextoe.ctxq.ContextQueuePair`): posted/acked TX bytes,
  delivered/consumed RX bytes, FIN posts and peer-FIN notifications. A
  periodic NIC->host state DMA adds staleness-bounded *hints*
  (``remote_win``, ``next_ts``) that improve convergence but are never
  load-bearing. On failure the manager quiesces, reboots the datapath
  (host shared memory — queue pairs, payload buffers, control ring —
  survives), reconstructs each flow's protocol fields from its shadow
  (:func:`reconstruct_protocol_state`), and re-offloads every
  connection; the peer sees only a retransmission gap.

  Soundness leans on the data path's *write-ahead rule* (see the DMA/ARX
  stages): a segment's ACK reaches the wire only after its notification
  is host-visible, so the shadow's ``rcv_nxt`` is always >= anything the
  peer believes was delivered — the peer never discards bytes recovery
  still needs.

* **Graceful degradation** — while the NIC is down a
  :class:`SlowPathShim` takes over the station port and answers the
  peer's data and probe segments with zero-window pure ACKs, built the
  same way :class:`repro.baselines.engine.HostTcpEngine` builds its ACK
  replies. Peers park in persist state (zero-window probing never aborts
  a connection) instead of RTO-aborting, and hand back cleanly when the
  re-offloaded data path answers the next probe with a real window.
"""

from repro.flextoe.descriptors import (
    HC_FIN,
    HC_RETRANSMIT,
    HC_RX_UPDATE,
    HC_TX_UPDATE,
    NOTIFY_FIN,
    NOTIFY_RX,
    NOTIFY_TX_ACKED,
    HostControlDescriptor,
)
from repro.flextoe.datapath import HEARTBEAT_INTERVAL_NS
from repro.flextoe.slab import FLAG, INT, OBJ, U16, U32, Slab, SlabView, SlotTable, attach_fields
from repro.flextoe.state import ProtoInstall
from repro.nfp.cam import pack_four_tuple
from repro.proto import FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN, make_tcp_frame
from repro.proto.tcp import seq_add

#: The watchdog samples the heartbeat board this often and declares the
#: data path dead after this many consecutive samples without a beat.
WATCHDOG_INTERVAL_NS = 100_000
WATCHDOG_MISS_THRESHOLD = 3
# A live board then advances between any two samples (only crash() stops it).
assert WATCHDOG_INTERVAL_NS >= HEARTBEAT_INTERVAL_NS


class ConnShadow(SlabView):
    """Host-visible mirror of one offloaded connection's protocol state.

    Counters are *derived from context-queue traffic* (authoritative,
    crash-consistent); ``nic_snapshot`` holds the latest periodic NIC
    state DMA (hints only, staleness bounded by the snapshot interval).

    Shadows live in their own host-memory slab (one row per tracked
    connection — this is exactly the memory a crash must not take down),
    and carry everything re-offload needs beside the host's own
    addresses, which the manager holds: the peer's identity, initial
    sequence numbers, queue-derived counters, and the host buffer
    geometry. The manager can therefore reinstall a connection from its
    shadow alone, without the (dead) old record. Tracking writes the
    row; this view exists only once the connection's queue traffic (or a
    test) touches it, and gets ``local_ip`` from the :class:`ShadowTable`.
    """

    __slots__ = ("local_ip",)
    #: Written once, as one row, when tracking starts.
    INSTALL_FIELDS = (
        "remote_ip",
        "local_port",
        "remote_port",
        "context_id",
        "snd_iss",  # first data byte's sequence number
        "rcv_irs",  # first expected peer data byte
        "peer_mac",
        "opaque",
        "rx_region",
        "rx_base",
        "rx_size",
        "tx_region",
        "tx_base",
        "tx_size",
    )
    #: Mirrored from queue traffic afterwards; all start at zero.
    SLAB_FIELDS = INSTALL_FIELDS + (
        "tx_posted",  # bytes the app posted via HC_TX_UPDATE
        "tx_acked",  # bytes NOTIFY_TX_ACKED returned to the app
        "rx_delivered",  # bytes NOTIFY_RX handed to the app
        "rx_consumed",  # bytes the app returned via HC_RX_UPDATE
        "fin_posted",
        "peer_fin_seen",
        "nic_snapshot",
    )

    @property
    def four_tuple(self):
        return (self.local_ip, self.remote_ip, self.local_port, self.remote_port)

    @property
    def snd_una(self):
        """32-bit sequence of the oldest unacknowledged byte."""
        return seq_add(self.snd_iss, self.tx_acked)

    @property
    def rcv_nxt(self):
        """32-bit sequence the host-visible stream expects next."""
        nxt = seq_add(self.rcv_irs, self.rx_delivered)
        if self.peer_fin_seen:
            nxt = seq_add(nxt, 1)
        return nxt


#: The host-side shadow slab: one slot per tracked connection. This is
#: the memory recovery reads after a crash, so it lives outside the NIC
#: object graph entirely — ``crash()``/``reboot()`` never touch it.
#: The peer's IPv4 address, ports, sequence numbers and buffer sizes are
#: stored at their width; buffer addresses, the MAC and the four mirrored
#: byte counts are INT. The connection index is the table's key, the
#: host's addresses the manager's: neither is a column.
_SHADOW_KINDS = {
    **dict.fromkeys(("fin_posted", "peer_fin_seen"), FLAG),
    **dict.fromkeys(("rx_region", "tx_region", "opaque", "nic_snapshot"), OBJ),
    **dict.fromkeys(("local_port", "remote_port"), U16),
    **dict.fromkeys(("remote_ip", "context_id", "snd_iss", "rcv_irs", "rx_size", "tx_size"), U32),
}
SHADOW_SLAB = Slab(
    fields=[(name, _SHADOW_KINDS.get(name, INT)) for name in ConnShadow.SLAB_FIELDS],
    initial=1024,
    name="shadow",
)

attach_fields(ConnShadow, SHADOW_SLAB)
_write_shadow = SHADOW_SLAB.row_writer(ConnShadow.INSTALL_FIELDS)
_write_nic_snapshot = SHADOW_SLAB.row_writer(("nic_snapshot",))


def write_shadow(four_tuple, peer_mac, snd_iss, rcv_irs, context_id, opaque, rx_buffer, tx_buffer):
    """A tracked connection's shadow, as one row write; returns the slot.
    The four-tuple's local address is the :class:`ShadowTable`'s."""
    _local_ip, remote_ip, local_port, remote_port = four_tuple
    slot = SHADOW_SLAB.alloc()
    _write_shadow(
        slot, remote_ip, local_port, remote_port, context_id, snd_iss, rcv_irs, peer_mac, opaque, *rx_buffer, *tx_buffer
    )
    return slot


class ShadowTable(SlotTable):
    """Connection index -> shadow row, for one host: every shadow it
    makes, claimed or borrowed, has the host's ``local_ip``."""

    __slots__ = ("local_ip",)

    def __init__(self, local_ip):
        super().__init__(ConnShadow)
        self.local_ip = local_ip

    def claim(self, index, slot):
        shadow = ConnShadow.claim(index, slot)
        shadow.local_ip = self.local_ip
        return shadow

    def view(self, slot):
        """A borrowing view of the row at ``slot``: it owns nothing."""
        shadow = ConnShadow.view(slot)
        shadow.local_ip = self.local_ip
        return shadow


def reconstruct_protocol_state(shadow):
    """A flow's protocol fields, rebuilt from its host shadow, as the
    :class:`~repro.flextoe.state.ProtoInstall` a re-offload writes.

    The reconstruction is deliberately conservative: transmission rewinds
    to ``snd_una`` (anything in flight at the crash is retransmitted —
    go-back-N, which the peer resolves via trim/dup-ACK), the receive
    side resumes at the host-visible ``rcv_nxt`` (the write-ahead rule
    guarantees the peer holds everything beyond it for retransmission),
    and a posted-but-unconfirmed FIN is re-armed (a duplicate FIN is
    acknowledged idempotently by the peer).
    """
    tx_acked = shadow.tx_acked
    rx_delivered = shadow.rx_delivered
    ack = seq_add(shadow.rcv_irs, rx_delivered)
    # Staleness-bounded hints: a wrong remote_win self-corrects on the
    # first ACK, a missing next_ts just skips one RTT sample.
    snap = shadow.nic_snapshot or {}
    hints = {name: snap[name] for name in ("remote_win", "next_ts") if name in snap}
    return ProtoInstall(
        seq=seq_add(shadow.snd_iss, tx_acked),
        ack=seq_add(ack, 1) if shadow.peer_fin_seen else ack,
        rx_avail=shadow.rx_size - (rx_delivered - shadow.rx_consumed),
        rx_fin_seq=ack if shadow.peer_fin_seen else None,
        rx_pos=rx_delivered,
        tx_pos=tx_acked,
        tx_avail=shadow.tx_posted - tx_acked,
        fin_pending=shadow.fin_posted,
        **hints,
    )


class SlowPathShim:
    """Host slow path answering for offloaded connections while the NIC
    is down.

    Installed on the station port in place of the (dead) MAC. It answers
    the peer's data/FIN/probe segments with zero-window pure ACKs at the
    shadow's ``rcv_nxt`` — enough to park peers in persist state (which
    never aborts) without accepting payload the dead datapath could not
    deliver. ARP and RST still reach the control plane so address
    resolution and teardown work throughout the outage; handshake
    segments are dropped (SYN retransmission spans the outage).
    """

    def __init__(self, plane, recovery, port):
        self.plane = plane
        self.recovery = recovery
        self.port = port
        self._saved_receiver = None
        self.installed = False
        self.acks_sent = 0
        self.frames_seen = 0
        self.frames_dropped = 0

    def install(self):
        self._saved_receiver = self.port.receiver
        self.port.receiver = self._on_frame
        self.installed = True

    def uninstall(self):
        # A reboot re-attaches the port to the new MAC; only restore if
        # nothing displaced us (e.g. recovery aborted before reboot).
        if self.port.receiver == self._on_frame:
            self.port.receiver = self._saved_receiver
        self._saved_receiver = None
        self.installed = False

    def raw_send(self, frame):
        """Control-plane TX while the NIC cannot transmit."""
        self.port.send(frame)

    def _on_frame(self, frame):
        self.frames_seen += 1
        if frame.tcp is None:
            # ARP keeps working through the outage.
            self.plane.handle_frame(frame)
            return
        tcp = frame.tcp
        if tcp.flags & FLAG_RST:
            self.plane.handle_frame(frame)
            return
        if tcp.flags & FLAG_SYN:
            # No datapath to offload onto; the peer's SYN retransmission
            # outlives the outage.
            self.frames_dropped += 1
            return
        four = (frame.ip.dst, frame.ip.src, tcp.dport, tcp.sport)
        shadow = self.recovery.shadow_for_tuple(four)
        if shadow is None:
            self.frames_dropped += 1
            return
        if not frame.payload and not (tcp.flags & FLAG_FIN):
            # Pure ACK: never acknowledged back (no ACK-of-ACK), and the
            # shadow cannot absorb its effects anyway.
            return
        reply = make_tcp_frame(
            self.plane.local_mac,
            frame.eth.src,
            frame.ip.dst,
            frame.ip.src,
            tcp.dport,
            tcp.sport,
            seq=shadow.snd_una,
            ack=shadow.rcv_nxt,
            flags=FLAG_ACK,
            window=0,
            born_at=self.plane.sim.now,
        )
        self.acks_sent += 1
        self.port.send(reply)


class RecoveryManager:
    """Watchdog + shadow + re-offload orchestration for one control plane."""

    def __init__(self, plane, station=None):
        self.plane = plane
        self.sim = plane.sim
        self.nic = plane.nic
        self.config = plane.config
        # The host's addresses, once: shadows hold the peer's only.
        self.local_mac = plane.local_mac
        self.local_ip = plane.local_ip
        self.shadows = ShadowTable(self.local_ip)  # conn_index -> shadow row
        # pack_four_tuple(four_tuple) -> conn_index, built lazily on the
        # first tuple lookup (the slow-path shim during an outage) and
        # maintained incrementally afterwards. Steady-state tracking —
        # including million-connection adopts — pays nothing for it.
        self._by_tuple = None
        self._tapped_contexts = set()
        self.degraded = False
        self.recoveries = 0
        self.watchdog_fired = 0
        self.last_detect_ns = None
        self.last_recovery_ns = None
        self.last_outage_ns = None
        self.reoffloaded_connections = 0
        self.purged_descriptors = 0
        self.shim = SlowPathShim(plane, self, station.port) if station is not None else None
        if self.config.snapshot_interval_ns:
            self.nic.enable_state_snapshots(self._write_snapshot, self.config.snapshot_interval_ns)
        self.sim.process(self._watchdog_loop(self._watch_board()), name="cp-watchdog")

    # -- shadow maintenance --------------------------------------------------

    def track(self, index, four_tuple, peer_mac, iss, irs, context_id, opaque, rx_buffer, tx_buffer):
        """Start shadowing a freshly established connection: one shadow
        row, written from the values it was offloaded with (the leading
        parameters of ``FlexToeNic.offload_connection``, in its order)."""
        self.shadows.put(index, write_shadow(four_tuple, peer_mac, iss, irs, context_id, opaque, rx_buffer, tx_buffer))
        if self._by_tuple is not None:
            self._by_tuple[pack_four_tuple(four_tuple)] = index
        if context_id not in self._tapped_contexts:
            pair = self.nic.context_pair(context_id)
            if pair is not None:
                pair.add_tap(self._on_pair_event)
                self._tapped_contexts.add(context_id)

    def adopt_offloaded(
        self,
        four_tuple,
        peer_mac,
        local_mac,
        iss,
        irs,
        context_id,
        opaque,
        rx_buffer,
        tx_buffer,
    ):
        """Install a quiescent pre-established connection: NIC state plus
        shadow, but no control-plane directory entry.

        This is the million-connection scale-out path: adopted flows are
        fully offloaded (lookup, scheduler admission, crash recovery via
        the shadow-only re-offload pass) but skip the per-tick timer and
        congestion scans, whose cost is proportional to directory size.
        Two row writes, two table puts and no object. Returns the index.
        ``local_mac`` must be the host's: no row stores it.
        """
        if local_mac != self.local_mac:
            raise ValueError("{:#x} is not this host's MAC {:#x}".format(local_mac, self.local_mac))
        index = self.nic.offload_connection(
            self.nic.allocate_connection_index(),
            four_tuple, peer_mac, iss, irs, context_id, opaque, rx_buffer, tx_buffer,
        )
        self.track(index, four_tuple, peer_mac, iss, irs, context_id, opaque, rx_buffer, tx_buffer)
        return index

    def forget(self, index):
        if self._by_tuple is not None:
            shadow = self.shadows.get(index)
            if shadow is not None:
                self._by_tuple.pop(pack_four_tuple(shadow.four_tuple), None)
        self.shadows.remove(index)

    def shadow_for_tuple(self, four_tuple):
        if self._by_tuple is None:
            self._by_tuple = {
                pack_four_tuple(self.shadows.view(slot).four_tuple): index
                for index, slot in self.shadows.items()
            }
        index = self._by_tuple.get(pack_four_tuple(four_tuple))
        return None if index is None else self.shadows.get(index)

    def _on_pair_event(self, kind, item):
        shadow = self.shadows.get(item.conn_index)
        if shadow is None:
            return
        if kind == "hc":
            if item.kind == HC_TX_UPDATE:
                shadow.tx_posted += item.value
                if item.fin:
                    shadow.fin_posted = True
            elif item.kind == HC_RX_UPDATE:
                shadow.rx_consumed += item.value
            elif item.kind == HC_FIN:
                shadow.fin_posted = True
        elif kind == "notify":
            if item.kind == NOTIFY_TX_ACKED:
                shadow.tx_acked += item.length
            elif item.kind == NOTIFY_RX:
                shadow.rx_delivered += item.length
            elif item.kind == NOTIFY_FIN:
                shadow.peer_fin_seen = True

    def _write_snapshot(self, index, snapshot):
        slot = self.shadows.slot(index)
        if slot >= 0:
            _write_nic_snapshot(slot, snapshot)

    # -- watchdog ------------------------------------------------------------

    def _watch_board(self):
        """An event the data path's ``crash()`` succeeds with its frozen board."""
        self.nic.datapath.heartbeats.watcher = freeze = self.sim.event()
        return freeze

    def _watchdog_loop(self, freeze):
        """Samples fall on ``chain + k * WATCHDOG_INTERVAL_NS``, k >= 1, but
        a live one is the identity: sleep until the board freezes, compute
        the last one before, take the rest (DESIGN §12 rule 2)."""
        chain = self.sim.now
        while True:
            board = yield freeze
            # A sample on the freeze instant reads the same before or after it.
            taken = (self.sim.now - chain) // WATCHDOG_INTERVAL_NS
            last_total = sum(board.snapshot(chain + taken * WATCHDOG_INTERVAL_NS).values()) if taken else None
            misses = 0
            yield self.sim.timeout(chain + (taken + 1) * WATCHDOG_INTERVAL_NS - self.sim.now)
            while True:
                total = sum(self.nic.read_heartbeats().values())
                if last_total is not None and total == last_total:
                    misses += 1
                    if misses >= WATCHDOG_MISS_THRESHOLD:
                        break
                else:
                    misses = 0
                last_total = total
                yield self.sim.timeout(WATCHDOG_INTERVAL_NS)
            self.watchdog_fired += 1
            yield from self._recover()
            chain = self.sim.now
            freeze = self._watch_board()

    # -- recovery ------------------------------------------------------------

    def _recover(self):
        """Quiesce, reboot, re-offload. Runs inside the watchdog process."""
        self.degraded = True
        self.plane.arm_all()
        self.last_detect_ns = self.sim.now
        if self.shim is not None:
            self.shim.install()
        yield self.sim.timeout(self.config.reboot_delay_ns)
        self.nic.reboot()
        if self.shim is not None:
            self.shim.uninstall()
        self._reoffload_all()
        self.degraded = False
        self.recoveries += 1
        self.last_recovery_ns = self.sim.now
        self.last_outage_ns = self.sim.now - self.last_detect_ns

    def _reoffload_all(self):
        """Reinstall every directory connection on the fresh datapath.

        Synchronous on purpose: between the descriptor purge, the shadow
        read, and the re-offload nothing may yield — a context-queue
        event in between would double-count into the rebuilt state.
        """
        # Stale outbound HC descriptors died with the chip: anything
        # still queued is already folded into the shadow (taps fire at
        # post time), so the new datapath must never fetch it.
        for pair in self.nic.datapath.contexts.values():
            self.purged_descriptors += len(pair.outbound)
            pair.outbound.clear()
        reinstalled = set()
        for entry in list(self.plane.directory):
            shadow = self.shadows.get(entry.index)
            if shadow is None:
                continue
            proto = self._reoffload(entry.index, shadow)
            entry.record = record = self.nic.connection(entry.index)
            entry.last_snd_una = None
            entry.stalled_since = None
            entry.reset_backoff()
            self.plane.reprogram_rate(entry)
            reinstalled.add(entry.index)
            self._kick(entry.index, proto)
            # Re-announce our receive window so a peer parked against
            # the shim's zero window wakes up even if it has nothing
            # in flight to retransmit.
            self.plane.announce_window(record)
        # Shadow-only connections (bulk adoptions with no directory
        # entry — the control plane's timers never service them, but
        # their data-path state must survive a crash all the same),
        # read through a passing view: recovery makes no object of them.
        for index, slot in self.shadows.items():
            if index not in reinstalled:
                self._kick(index, self._reoffload(index, self.shadows.view(slot)))

    def _reoffload(self, index, shadow):
        """Reinstall connection ``index`` from its shadow and the host's
        addresses alone — the old record died with the chip. Returns the
        protocol fields it was installed with."""
        proto = reconstruct_protocol_state(shadow)
        self.nic.offload_connection(
            index=index,
            four_tuple=shadow.four_tuple,
            peer_mac=shadow.peer_mac,
            iss=proto.seq,
            irs=proto.ack,
            context_id=shadow.context_id,
            opaque=shadow.opaque,
            rx_buffer=(shadow.rx_region, shadow.rx_base, shadow.rx_size),
            tx_buffer=(shadow.tx_region, shadow.tx_base, shadow.tx_size),
            proto=proto,
        )
        self.reoffloaded_connections += 1
        return proto

    def _kick(self, index, proto):
        """Ring the new doorbell so ATX re-drains a context that still
        has data or a FIN to send."""
        from repro.control.plane import CONTROL_CONTEXT

        if proto.tx_avail > 0 or proto.fin_pending:
            self.nic.post_hc(CONTROL_CONTEXT, HostControlDescriptor(HC_RETRANSMIT, index))
