"""Connection-control objects: listeners, pending handshakes, teardown.

The data-path only ever sees established connections; everything before
(SYN exchange) and after (state removal) lives here (paper §3.4).
"""

from operator import attrgetter

_ORDER = attrgetter("order")

# Handshake states.
SYN_SENT = "syn-sent"
SYN_RCVD = "syn-rcvd"
ESTABLISHED = "established"
CLOSING = "closing"


class EstablishedInfo:
    """What the control plane hands libTOE when a connection is ready."""

    __slots__ = ("conn_index", "four_tuple", "rx_buffer", "tx_buffer", "token")

    def __init__(self, conn_index, four_tuple, rx_buffer, tx_buffer, token=None):
        self.conn_index = conn_index
        self.four_tuple = four_tuple
        self.rx_buffer = rx_buffer
        self.tx_buffer = tx_buffer
        # Per-establishment generation token (the NIC's ``opaque``):
        # connection indices are reused after teardown, and a
        # notification already queued for the previous tenant of an
        # index must not be delivered to its successor's socket.
        self.token = token


class Listener:
    """A listening port: backlog of established connections + waiters."""

    def __init__(self, ctx, port, backlog):
        self.ctx = ctx
        self.port = port
        self.backlog = backlog
        self.ready = []
        self.waiters = []
        # SYNs refused because the backlog (ready + embryonic) was full.
        self.syn_dropped = 0
        # Server-side handshakes in SYN_RCVD charged against this
        # listener's backlog (only under the deferred-accept defense).
        self.embryonic = 0

    def backlog_full(self):
        """True when a new SYN may not be admitted: the accept queue
        plus half-open handshakes already fill the backlog and one more
        per parked accept(). Admission here is what bounds ``ready``;
        :meth:`deliver` never refuses."""
        return len(self.ready) + self.embryonic >= self.backlog + len(self.waiters)

    def deliver(self, info):
        if self.waiters:
            self.waiters.pop(0).succeed(info)
        else:
            self.ready.append(info)


class PendingConnection:
    """A handshake in progress (client SYN_SENT or server SYN_RCVD)."""

    __slots__ = (
        "state",
        "four_tuple",
        "iss",
        "irs",
        "peer_mac",
        "ctx",
        "listener",
        "waiter",
        "last_sent_at",
        "attempts",
        "remote_win",
        "created_at",
        "embryonic",
    )

    def __init__(self, state, four_tuple, iss, ctx=None, listener=None, waiter=None):
        self.state = state
        self.four_tuple = four_tuple
        self.iss = iss
        self.irs = None
        self.peer_mac = None
        self.ctx = ctx
        self.listener = listener
        self.waiter = waiter
        self.last_sent_at = 0
        self.attempts = 0
        self.remote_win = 0xFFFF
        self.created_at = 0
        # True while counted against the embryonic budget (server-side
        # deferred accept only); cleared when the pending goes away.
        self.embryonic = False


class ConnectionDirectory:
    """Control-plane view of offloaded connections (for timers/CC)."""

    def __init__(self):
        self.entries = {}
        self.by_tuple = {}
        self._added = 0
        #: Entries whose next timer / congestion-control visit is not the
        #: identity (DESIGN §12); :meth:`remove` drops an entry from both.
        self.timer_armed = set()
        self.cc_armed = set()

    class Entry:
        __slots__ = (
            "index",
            "order",
            "record",
            "cc_flow",
            "snd_iss",
            "last_snd_una",
            "stalled_since",
            "closing",
            "close_requested_at",
            "retry_attempts",
            "rto_multiplier",
        )

        def __init__(self, index, record, cc_flow, snd_iss):
            self.index = index
            self.record = record
            self.cc_flow = cc_flow
            self.snd_iss = snd_iss
            self.last_snd_una = None
            self.stalled_since = None
            self.closing = False
            self.close_requested_at = None
            self.retry_attempts = 0
            self.rto_multiplier = 1

        def reset_backoff(self):
            self.retry_attempts = 0
            self.rto_multiplier = 1

    def add(self, index, record, cc_flow, snd_iss):
        entry = self.Entry(index, record, cc_flow, snd_iss)
        self._added = entry.order = self._added + 1  # indices recycle; this never does
        self.entries[index] = entry
        self.by_tuple[record.four_tuple] = entry
        return entry

    def remove(self, index):
        entry = self.entries.pop(index, None)
        if entry is not None:
            self.by_tuple.pop(entry.record.four_tuple, None)
            self.timer_armed.discard(entry)
            self.cc_armed.discard(entry)
        return entry

    def get(self, index):
        return self.entries.get(index)

    def lookup(self, four_tuple):
        """Established-connection lookup by four-tuple (RST matching)."""
        return self.by_tuple.get(four_tuple)

    def in_order(self, armed):
        """The ``armed`` entries in directory order, as a snapshot."""
        return sorted(armed, key=_ORDER)

    def __iter__(self):
        return iter(self.entries.values())

    def __len__(self):
        return len(self.entries)
