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

from repro.sim import TraceRecorder

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
    """Holds enablement state and the shared recorder."""

    __slots__ = ("recorder", "enabled", "_active")

    def __init__(self, enabled=False, recorder=None):
        self.recorder = recorder or TraceRecorder(enabled=enabled, limit=200_000)
        self.enabled = enabled
        self._active = set(TRACEPOINTS) if enabled else set()

    def enable_all(self):
        self.enabled = True
        self.recorder.enabled = True
        self._active = set(TRACEPOINTS)

    def disable_all(self):
        self.enabled = False
        self.recorder.enabled = False
        self._active.clear()

    def enable(self, names):
        self.enabled = True
        self.recorder.enabled = True
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
        self.recorder.emit(now, source, name, payload)
        return TRACEPOINTS.get(name, 20)

    def count(self, name=None, source=None):
        return self.recorder.count(source=source, event=name)
