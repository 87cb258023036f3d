"""Work items and descriptors moving through the data-path.

* :class:`SegWork` — the pipeline's unit of work for RX/TX segments.
* :class:`HostControlDescriptor` — host->NIC context-queue entries
  (transmit window updates, receive window updates, retransmit, FIN).
* :class:`Notification` — NIC->host context-queue entries (received
  payload, acknowledged bytes, peer FIN).
"""

# Host-control descriptor kinds (libTOE / control-plane -> NIC).
HC_TX_UPDATE = "tx_update"
HC_RX_UPDATE = "rx_update"
HC_RETRANSMIT = "retransmit"
HC_FIN = "fin"
HC_PROBE = "probe"  # zero-window probe (control-plane persist timer)

# Notification kinds (NIC -> libTOE).
NOTIFY_RX = "rx"
NOTIFY_TX_ACKED = "tx_acked"
NOTIFY_FIN = "fin"
NOTIFY_ERROR = "error"  # control plane -> app: connection died (timeout/RST)

# SegWork kinds.
WORK_RX = "rx"
WORK_TX = "tx"
WORK_HC = "hc"


class HostControlDescriptor:
    """A context-queue entry from host to NIC (paper §3.1.1).

    ``value`` is the byte count for window updates; descriptors may be
    batched on a queue behind a single doorbell.
    """

    __slots__ = ("kind", "conn_index", "value", "fin")

    def __init__(self, kind, conn_index, value=0, fin=False):
        self.kind = kind
        self.conn_index = conn_index
        self.value = value
        self.fin = fin

    def __repr__(self):
        return "<HC {} conn={} value={}{}>".format(
            self.kind, self.conn_index, self.value, " FIN" if self.fin else ""
        )


class Notification:
    """A context-queue entry from NIC to host.

    For ``NOTIFY_RX``: ``offset``/``length`` locate new payload in the
    socket's RX buffer. For ``NOTIFY_TX_ACKED``: ``length`` transmit
    bytes were acknowledged and may be reused by libTOE.
    """

    __slots__ = ("kind", "opaque", "conn_index", "context_id", "offset", "length", "created_at", "error", "piggyback_ack")

    def __init__(self, kind, opaque, conn_index, context_id=0, offset=0, length=0, created_at=0, error=None):
        self.kind = kind
        self.opaque = opaque
        self.conn_index = conn_index
        self.context_id = context_id
        self.offset = offset
        self.length = length
        self.created_at = created_at
        self.error = error  # NOTIFY_ERROR: "timeout" | "reset"
        # NIC-internal (never host-visible): an ACK frame the ARX stage
        # releases to the wire only after this notification is delivered
        # — the write-ahead rule that makes crash recovery sound (a
        # wire-ACKed byte is always reflected in host-visible state).
        self.piggyback_ack = None

    def __repr__(self):
        return "<Notify {} conn={} off={} len={}>".format(self.kind, self.conn_index, self.offset, self.length)


class SegWork:
    """A unit of pipeline work.

    Fields are populated progressively by the stages; per the module API
    (§3.3) stages communicate only through these metadata fields, never
    by reaching into each other's state partitions. ``record`` is the
    work's identity, set once at admission: no stage looks ``conn_index``
    up again, so a work never reads the state, buffers or fences of the
    index's next tenant, and its slab slot cannot recycle under it.
    """

    __slots__ = (
        "kind",
        "pipeline_seq",
        "sequencer",
        "frame",
        "record",
        "conn_index",
        "flow_group",
        "summary",
        "snapshot",
        "hc",
        "tx_len",
        "tx_offset",
        "rx_offset",
        "rx_trimmed_payload",
        "notify",
        "ack_frame",
        "born_at",
    )

    def __init__(self, kind, frame=None, hc=None, born_at=0):
        self.kind = kind
        self.pipeline_seq = None
        self.sequencer = None  # whose ticket pipeline_seq is
        self.frame = frame
        self.record = None
        self.conn_index = None
        self.flow_group = None
        self.summary = None
        self.snapshot = None
        self.hc = hc
        self.tx_len = 0
        self.tx_offset = 0
        self.rx_offset = None
        self.rx_trimmed_payload = None
        self.notify = None
        self.ack_frame = None
        self.born_at = born_at

    def __repr__(self):
        return "<SegWork {} conn={} seq={}>".format(self.kind, self.conn_index, self.pipeline_seq)


class ProtoSnapshot:
    """The protocol stage's verdict on one work (§3.1.3: stages
    communicate explicitly, never by sharing state) — everything the
    post stage reads, written once.

    :mod:`repro.flextoe.proto_logic` builds and returns it for RX and HC
    works (``process_rx`` / ``process_hc``); for a TX work the stage
    wraps ``process_tx``'s emitted segment as ``tx``. The stage itself
    adds only what needs the data path: ``nbi_seq``.
    """

    __slots__ = (
        "send_ack",
        "dup_ack",
        "ack_seq",
        "ack_ack",
        "window",
        "echo_ts",
        "ece",
        "fs_sendable",
        "acked_bytes",
        "fast_retransmit",
        "rtt_sample_ecr",
        "payload_dest_pos",
        "payload",
        "notify_rx_pos",
        "notify_rx_len",
        "fin_notified",
        "was_ooo",
        "dropped_ooo",
        "tx",
        "nbi_seq",
    )

    def __init__(self):
        # The acknowledgment to build, when send_ack: sequence numbers,
        # window field and timestamp echo as the state stood.
        self.send_ack = False
        self.dup_ack = False
        self.ack_seq = 0
        self.ack_ack = 0
        self.window = 0
        self.echo_ts = None
        self.ece = False
        # Sender side: flow-scheduler refresh and congestion feedback.
        self.fs_sendable = None
        self.acked_bytes = 0
        self.fast_retransmit = False
        self.rtt_sample_ecr = None
        # Receiver side: where the kept payload goes in the receive
        # stream (absolute position), and what became in-order.
        self.payload_dest_pos = None
        self.payload = b""
        self.notify_rx_pos = None
        self.notify_rx_len = 0
        self.fin_notified = False
        self.was_ooo = False
        self.dropped_ooo = False
        self.tx = None  # the TxResult of a TX work
        # NBI ordering ticket, when one was taken at the protocol stage;
        # dp.retire() releases it if the work stops short of the NBI.
        self.nbi_seq = None


class HeaderSummary:
    """The pre-processor's header summary (§3.1.3): just the fields later
    stages need, so the full headers never cross islands."""

    __slots__ = ("seq", "ack", "flags", "window", "payload_len", "ts_val", "ts_ecr", "ce_marked")

    def __init__(self, seq, ack, flags, window, payload_len, ts_val=None, ts_ecr=None, ce_marked=False):
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload_len = payload_len
        self.ts_val = ts_val
        self.ts_ecr = ts_ecr
        self.ce_marked = ce_marked
