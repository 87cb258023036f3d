"""Per-connection state, partitioned across pipeline stages (Table 5).

Each stage owns exactly one partition; cross-stage information travels as
metadata on the work item (the module-API rule of §3.3). The partition
sizes reproduce the paper's 108 bytes per connection.

Storage is a single array-of-struct slab (:mod:`repro.flextoe.slab`):
every connection occupies one slot across all columns, and the partition
classes below are flyweight views onto that slot. A class declares its
fields in ``SLAB_FIELDS`` — which ``repro.analysis.stagelint`` imports
as the write-set ownership map — and :func:`~repro.flextoe.slab.attach_fields`
generates one property per field. The attribute API is unchanged, so
stage code, the race sanitizer and existing tests keep working; the
per-connection footprint drops from kilobytes of heap objects to a few
machine words of column storage.

Replicated stage instances of one flow group share their partition, so a
plain read-modify-write from a replicated stage is a lost-update race on
hardware. Fields that are *commutative counters* may instead use the NFP
atomic-add engine; they must be declared in the :func:`atomic` registry,
which ``hb-race``'s atomic verdict checks and which :func:`atomic_add`
uses to charge the engine's issue latency in the simulator.
"""

from collections import namedtuple

from repro.flextoe.slab import FLAG, INT, OBJ, U8, U16, U32, Slab, SlabView, SlotTable, attach_fields
from repro.nfp.memory import LAT_ATOMIC_ADD
from repro.proto.tcp import seq_add

# field name -> partition, for every declared commutative atomic-add
# counter. Populated by the module-level atomic() declarations below;
# repro.analysis.stagelint reads it through atomic_fields().
_ATOMIC_FIELDS = {}


def atomic(partition, *fields):
    """Declare ``fields`` of ``partition`` as atomic-add counters.

    The declaration is a contract: updates are commutative additions
    performed by the memory engine, never read-modify-writes in stage
    code, so replicated stage instances may update them concurrently.
    """
    for field in fields:
        _ATOMIC_FIELDS[field] = partition
    return fields


def atomic_fields():
    """Copy of the registry: ``{field: partition}``."""
    return dict(_ATOMIC_FIELDS)


def atomic_add(target, field, delta, maximum=None):
    """Atomic-engine add of ``delta`` to ``target.field``.

    ``maximum`` models saturating 8-bit counters (``cnt_fretx``).
    Returns the FPC cycles to charge (the engine's issue cost — the
    FPC fires the command and does not wait for the EMEM round trip).
    Only registry-declared fields may be updated this way.
    """
    if field not in _ATOMIC_FIELDS:
        raise ValueError(
            "atomic_add on '{}': not declared in the atomic() registry".format(field)
        )
    value = getattr(target, field) + delta
    if maximum is not None:
        value = min(maximum, value)
    setattr(target, field, value)
    return LAT_ATOMIC_ADD


class PreprocState(SlabView):
    """Pre-processor partition: connection identification (15 B)."""

    __slots__ = ()
    SLAB_FIELDS = ("peer_mac", "peer_ip", "local_port", "remote_port", "flow_group")
    SIZE_BYTES = 15

    def __init__(self, peer_mac, peer_ip, local_port, remote_port, flow_group):
        self._bind()
        _write_pre(self._i, peer_mac, peer_ip, local_port, remote_port, flow_group)


class ProtocolState(SlabView):
    """Protocol partition: the TCP state machine fields (43 B).

    Positions are *offsets* into the host circular payload buffers; the
    buffer base addresses live in the post-processor partition, which the
    protocol stage cannot read.
    """

    __slots__ = ()
    SLAB_FIELDS = (
        "rx_pos",
        "tx_pos",
        "tx_avail",
        "rx_avail",
        "remote_win",
        "tx_sent",
        "seq",
        "ack",
        "ooo_start",
        "ooo_len",
        "dupack_cnt",
        "next_ts",
        "fin_pending",
        "fin_seq",
        "rx_fin_seq",
        "delack_cnt",
    )
    SIZE_BYTES = 43

    def __init__(self, seq=0, ack=0, rx_avail=0, remote_win=0xFFFF):
        self._bind()
        _write_proto(self._i, *ProtoInstall(seq, ack, rx_avail, remote_win))

    @property
    def has_ooo(self):
        return self.ooo_len > 0

    def flight_limit(self):
        """Bytes currently eligible for transmission."""
        window = min(self.tx_avail, max(0, self.remote_win - self.tx_sent))
        return max(0, window)

    def reset_to_last_ack(self):
        """Go-back-N: rewind transmission to the last acknowledged byte.

        ``tx_pos``/``rx_pos`` are unbounded byte counts (the paper's
        64-bit buffer heads); ``seq`` stays in 32-bit sequence space.
        A sent-but-unacked FIN occupies one unit of ``tx_sent`` sequence
        space but no buffer bytes; it is re-armed for retransmission.
        """
        fin_units = 1 if self.fin_seq is not None else 0
        data_rewound = self.tx_sent - fin_units
        self.tx_pos -= data_rewound
        self.seq = seq_add(self.seq, -self.tx_sent)
        self.tx_avail += data_rewound
        self.tx_sent = 0
        self.dupack_cnt = 0
        if fin_units:
            self.fin_seq = None
            self.fin_pending = True


#: The protocol fields an install writes, with their post-handshake
#: values; ``tx_sent``, the out-of-order interval and the duplicate- and
#: delayed-ACK counters always start at the zero ``alloc()`` hands out.
#: Crash recovery fills the same tuple from a connection's host shadow
#: (``repro.control.recovery.reconstruct_protocol_state``).
ProtoInstall = namedtuple(
    "ProtoInstall",
    "seq ack rx_avail remote_win fin_seq rx_fin_seq rx_pos tx_pos tx_avail next_ts fin_pending",
    defaults=(0, 0, 0, 0xFFFF, None, None, 0, 0, 0, 0, False),
)


class PostprocState(SlabView):
    """Post-processor partition: app interface + congestion stats (51 B)."""

    __slots__ = ()
    SLAB_FIELDS = (
        "opaque",
        "context_id",
        "rx_base",
        "tx_base",
        "rx_size",
        "tx_size",
        "rx_region",
        "tx_region",
        "cnt_ackb",
        "cnt_ecnb",
        "cnt_fretx",
        "rtt_est",
        "rate",
    )
    SIZE_BYTES = 51

    def __init__(self, opaque, context_id, rx_base, tx_base, rx_size, tx_size, rx_region=None, tx_region=None):
        self._bind()
        _write_post(self._i, opaque, context_id, rx_base, tx_base, rx_size, tx_size, rx_region, tx_region)

    def take_cc_stats(self):
        """Read-and-reset congestion statistics (control-plane poll)."""
        stats = (self.cnt_ackb, self.cnt_ecnb, self.cnt_fretx, self.rtt_est)
        self.cnt_ackb = 0
        self.cnt_ecnb = 0
        self.cnt_fretx = 0
        return stats

    def fold_rtt_samples(self, total_us, count):
        """Fold a batch of RTT samples into the EWMA estimate.

        Replicated post stages accumulate samples per replica (no shared
        read-modify-write); the drain at context-stage granularity folds
        the batch mean in here, from a single site. No-op when the batch
        is empty.
        """
        if count <= 0:
            return
        mean = total_us // count
        if self.rtt_est == 0:
            self.rtt_est = mean
        else:
            self.rtt_est = (7 * self.rtt_est + mean) // 8


#: Congestion-control counters the replicated post stage updates via the
#: atomic-add engine (paper §3.1: Stats is replicated; Laminar's
#: atomic/aggregate classification of replicated state).
atomic("post", "cnt_ackb", "cnt_ecnb", "cnt_fretx")


class HeartbeatBoard:
    """Per-stage-group heartbeat sequence numbers in CTM/EMEM.

    Each stage group bumps its own slot every ``interval_ns`` from the
    moment the data path is built until the chip dies; nothing else
    stops a beat (an FPC stall does not — the beat never competes for
    an issue slot). The sequence is therefore a function of the clock
    and is derived on read, not simulated: one beat per whole interval
    strictly before ``frozen_at`` (the crash instant) or, while alive,
    before now — a beat landing on the very instant of a read is not
    yet visible to it. ``crash()`` succeeds ``watcher``, if set, with the board.
    """

    __slots__ = ("sim", "interval_ns", "stage_fpcs", "epoch", "frozen_at", "watcher")

    def __init__(self, sim, interval_ns, stage_fpcs):
        self.sim = sim
        self.interval_ns = interval_ns
        self.stage_fpcs = stage_fpcs  # stage kind -> [Fpc, ...] (live view)
        self.epoch = sim.now
        self.frozen_at = None
        self.watcher = None

    def snapshot(self, at=None):
        """Host-side MMIO read of every group's sequence: now, or as a read
        at ``at`` (an instant up to any freeze) saw it."""
        if at is None:
            at = self.sim.now if self.frozen_at is None else self.frozen_at
        seq = max(0, at - self.epoch - 1) // self.interval_ns
        return {
            (stage_kind, slot): seq
            for stage_kind, fpcs in self.stage_fpcs.items()
            for slot in range(len(fpcs))
        }


TOTAL_STATE_BYTES = PreprocState.SIZE_BYTES + ProtocolState.SIZE_BYTES + PostprocState.SIZE_BYTES


class ConnectionRecord(SlabView):
    """One offloaded connection: the three partitions plus identity.

    A connection is one row across the slab's columns, written by
    :func:`install_row`; the record is the view the connection table
    makes of it the first time something touches the connection
    (:meth:`ConnectionTable.get`), and owns the row from then on.
    ``pre``/``proto``/``post`` are borrowing views of the same slot.
    ``local_mac``/``local_ip`` are the host's, the same for every
    connection of one NIC: the table hands them over, no row holds them.
    """

    __slots__ = ("index", "local_mac", "local_ip", "_pre", "_proto", "_post")
    SLAB_FIELDS = ("active",)

    @classmethod
    def claim(cls, index, slot, local_mac=0, local_ip=0):
        self = super().claim(index, slot)
        self.index = index
        self.local_mac = local_mac
        self.local_ip = local_ip
        # Lazy and cached: a record the data path processes makes each
        # partition view once; one touched only by the control plane
        # makes only what it reads.
        self._pre = self._proto = self._post = None
        return self

    @property
    def pre(self):
        view = self._pre
        if view is None:
            view = self._pre = PreprocState.view(self.slab_slot)
        return view

    @property
    def proto(self):
        view = self._proto
        if view is None:
            view = self._proto = ProtocolState.view(self.slab_slot)
        return view

    @property
    def post(self):
        view = self._post
        if view is None:
            view = self._post = PostprocState.view(self.slab_slot)
        return view

    @property
    def four_tuple(self):
        pre = self.pre
        return (self.local_ip, pre.peer_ip, pre.local_port, pre.remote_port)


#: Every connection (and every standalone partition instance tests
#: construct) lives in this one module-level slab. Column identity is
#: stable across growth, so the generated properties bind columns once.
_CONN_KINDS = {
    "fin_pending": FLAG,
    "active": FLAG,
    "opaque": OBJ,
    "rx_region": OBJ,
    "tx_region": OBJ,
    # Narrow columns, at Table 5's widths: ports are 16-bit by
    # definition, flow groups index a small config table, dupack_cnt is
    # clamped to 15, delack_cnt resets at delayed_ack_segments, cnt_fretx
    # saturates at 255 via atomic_add(maximum=255), and sequence space,
    # windows, buffer sizes, the timestamp echo, context ids and the RTT
    # in us and the peer's IPv4 address are 32-bit. INT stays for the
    # 64-bit buffer heads, addresses past 2**32, rate in bytes/s, FIN
    # sequences that may be None, 48-bit MACs, and cnt_ackb/cnt_ecnb,
    # which nothing drains while congestion control is off.
    **dict.fromkeys(("local_port", "remote_port", "flow_group"), U16),
    **dict.fromkeys(("dupack_cnt", "delack_cnt", "cnt_fretx"), U8),
    **dict.fromkeys(("tx_avail", "rx_avail", "remote_win", "tx_sent", "seq", "ack", "ooo_start", "ooo_len"), U32),
    **dict.fromkeys(("next_ts", "context_id", "rx_size", "tx_size", "rtt_est", "peer_ip"), U32),
}

CONN_SLAB = Slab(
    fields=[
        (name, _CONN_KINDS.get(name, INT))
        for name in (
            PreprocState.SLAB_FIELDS
            + ProtocolState.SLAB_FIELDS
            + PostprocState.SLAB_FIELDS
            + ConnectionRecord.SLAB_FIELDS
        )
    ],
    initial=1024,
    name="conn",
)

attach_fields(PreprocState, CONN_SLAB)
attach_fields(ProtocolState, CONN_SLAB)
attach_fields(PostprocState, CONN_SLAB)
attach_fields(ConnectionRecord, CONN_SLAB)

# What an install writes, per partition and for the whole row. Every
# other column starts at zero: free() zeroes a slot before it can be
# handed out again (the sanitized run asserts it in alloc()).
_POST_INSTALL = ("opaque", "context_id", "rx_base", "tx_base", "rx_size", "tx_size", "rx_region", "tx_region")
_write_pre = CONN_SLAB.row_writer(PreprocState.SLAB_FIELDS)
_write_proto = CONN_SLAB.row_writer(ProtoInstall._fields)
_write_post = CONN_SLAB.row_writer(_POST_INSTALL)
_write_install = CONN_SLAB.row_writer(
    ConnectionRecord.SLAB_FIELDS + PreprocState.SLAB_FIELDS + ProtoInstall._fields + _POST_INSTALL
)


def install_row(
    four_tuple,
    peer_mac=None,
    flow_group=0,
    proto=ProtoInstall(),
    context_id=0,
    opaque=None,
    rx_buffer=(None, 0, 0),
    tx_buffer=(None, 0, 0),
):
    """A connection's install: one row write of every field that does not
    start at zero, the same for a fresh, an adopted and a recovered
    connection. Returns the slot, for :meth:`ConnectionTable.put`. The
    four-tuple's local address is the table's (:class:`ConnectionTable`),
    not the row's."""
    _local_ip, remote_ip, local_port, remote_port = four_tuple
    rx_region, rx_base, rx_size = rx_buffer
    tx_region, tx_base, tx_size = tx_buffer
    slot = CONN_SLAB.alloc()
    _write_install(
        slot, True,
        peer_mac, remote_ip, local_port, remote_port, flow_group,
        *proto,
        opaque, context_id, rx_base, tx_base, rx_size, tx_size, rx_region, tx_region,
    )
    return slot


_read_remote_win = CONN_SLAB.reader("remote_win")
_read_next_ts = CONN_SLAB.reader("next_ts")


def proto_hints(slot):
    """What the periodic NIC->host state DMA copies of the row at ``slot``."""
    return {"remote_win": _read_remote_win(slot), "next_ts": _read_next_ts(slot)}


class ConnectionTable(SlotTable):
    """The data-path connection table, indexed by connection id.

    The control plane installs rows at connection setup (paper §3.4) and
    removes them at teardown. Indices are allocated to minimize
    collisions in the direct-mapped CLS cache (paper §4.1) — a simple
    ascending allocator achieves that layout — so the table is dense:
    four bytes per index, and a :class:`ConnectionRecord` only for a
    connection something has touched. ``local_mac``/``local_ip`` are the
    NIC's own, handed to every record the table claims.
    """

    __slots__ = ("local_mac", "local_ip", "capacity", "_free_indices", "_next_index")

    def __init__(self, local_mac=0, local_ip=0, capacity=1 << 20):
        super().__init__(ConnectionRecord)
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.capacity = capacity
        self._free_indices = []
        self._next_index = 0

    def claim(self, index, slot):
        return ConnectionRecord.claim(index, slot, self.local_mac, self.local_ip)

    def allocate_index(self):
        if self._free_indices:
            return self._free_indices.pop()
        # Past every index ever put, too: a table rebuilt during crash
        # recovery (rows re-installed at their pre-crash indices) never
        # re-allocates a live index.
        index = self._next_index
        if index < len(self._rows):
            index = len(self._rows)
        if index >= self.capacity:
            raise MemoryError("connection table full")
        self._next_index = index + 1
        return index

    def remove(self, index):
        """Drop ``index``'s row and recycle the index. A record something
        still holds reads ``active == False`` and keeps its slot."""
        if self.slot(index) < 0:
            return None
        record = super().remove(index)
        if record is not None:
            record.active = False
        self._free_indices.append(index)
        return record
