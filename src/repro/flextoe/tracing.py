"""Data-path tracepoints and statistics (paper §5.1, Table 2).

The paper implements 48 tracepoints covering transport events (drops,
out-of-order segments, retransmissions), inter-module queue occupancies,
and protocol-stage critical-section lengths. Enabling them costs FPC
cycles per segment — Table 2 measures a 24 % throughput hit — so the
registry exposes a per-event cycle cost that stage programs charge when
tracing is on. The catalog below holds the 16 of them this data path
hits, no more: a name listed here fires somewhere in
``repro.flextoe`` (``tests/flextoe/test_tcpdump_tracing.py`` compares
the two sets).
"""

#: The tracepoint catalog: event name -> extra FPC cycles when enabled.
TRACEPOINTS = {
    # transport events
    "rx.segment": 24,
    "rx.out_of_order": 32,
    "rx.ooo_drop": 32,
    "tx.segment": 24,
    "tx.stale_trigger": 24,
    "ack.sent": 20,
    "ack.dup_sent": 24,
    "retransmit.fast": 40,
    # host interface
    "hc.descriptor": 24,
    "hc.doorbell": 20,
    "notify.rx": 20,
    "notify.tx_acked": 20,
    "notify.fin": 20,
    # critical sections and DMA
    "proto.critical_section": 36,
    "proto.state_miss": 28,
    "dma.payload_issue": 24,
}


class TracepointRegistry:
    """Which tracepoints are on, and the ``(time, source, event, payload)``
    records their hits made: at most ``limit``, past which ``dropped``
    counts them. Off, a hit is one set lookup and appends nothing."""

    __slots__ = ("enabled", "limit", "records", "dropped", "_active")

    def __init__(self, enabled=False, limit=200_000):
        self.enabled = enabled
        self.limit = limit
        self.records = []
        self.dropped = 0
        self._active = set(TRACEPOINTS) if enabled else set()

    def enable_all(self):
        self.enabled = True
        self._active = set(TRACEPOINTS)

    def disable_all(self):
        self.enabled = False
        self._active.clear()

    def enable(self, names):
        self.enabled = True
        self._active.update(names)

    def cost(self, name):
        """Extra cycles the hosting FPC must charge for this event."""
        if name in self._active:
            return TRACEPOINTS.get(name, 20)
        return 0

    def hit(self, now, source, name, payload=None):
        """Record the event (if enabled); returns the cycle cost."""
        if name not in self._active:
            return 0
        if len(self.records) < self.limit:
            self.records.append((now, source, name, payload))
        else:
            self.dropped += 1
        return TRACEPOINTS.get(name, 20)

    def clear(self):
        self.records.clear()
        self.dropped = 0

    def count(self, name=None, source=None):
        """Records of the given event name and/or source."""
        return sum((source is None or record[1] == source) and (name is None or record[2] == name)
                   for record in self.records)
