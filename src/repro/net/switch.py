"""Output-queued Ethernet switch with ECN marking, WRED, and shaping.

Forwarding is by destination MAC (static table learned at attach time,
plus flooding for broadcast/unknown — enough for ARP). Each egress port
has a bounded byte queue drained at the port's (possibly shaped) rate:

* **ECN step marking** — frames enqueued while the queue exceeds
  ``ecn_threshold_bytes`` get a CE mark (DCTCP-style, paper §3.4).
* **WRED** — between ``red_min_bytes`` and ``red_max_bytes`` frames are
  dropped with linearly increasing probability; above max, tail drop
  (used by the incast experiment, Table 4).
* **Shaping** — ``rate_bps`` per egress port can be lowered to model the
  paper's 10 Gbps shaped incast bottleneck.
"""

from collections import deque

from repro.net.link import Port, wire_time_ns

BROADCAST_MAC = (1 << 48) - 1


class SwitchPortConfig:
    """Egress queue policy for one switch port."""

    def __init__(
        self,
        rate_bps=100_000_000_000,
        queue_capacity_bytes=2 * 1024 * 1024,
        ecn_threshold_bytes=None,
        red_min_bytes=None,
        red_max_bytes=None,
    ):
        self.rate_bps = rate_bps
        self.queue_capacity_bytes = queue_capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.red_min_bytes = red_min_bytes
        self.red_max_bytes = red_max_bytes


class _EgressQueue:
    """A bounded byte queue of ``(frame, size)`` drained at the egress rate."""

    def __init__(self, sim, port, config, rng):
        self.sim = sim
        self.port = port
        self.config = config
        self.rng = rng
        self.queue = deque()
        self.bytes_queued = 0
        self.draining = False
        self._on_wire = None  # (frame, size) whose wire time the pushed drain step ends
        self.enqueued = 0
        self.dropped_tail = 0
        self.dropped_red = 0
        self.marked_ce = 0
        self.peak_bytes = 0

    def offer(self, frame):
        config = self.config
        size = frame.wire_len
        if self.bytes_queued + size > config.queue_capacity_bytes:
            self.dropped_tail += 1
            return
        if config.red_min_bytes is not None and self.bytes_queued > config.red_min_bytes:
            span = max(1, (config.red_max_bytes or config.queue_capacity_bytes) - config.red_min_bytes)
            excess = self.bytes_queued - config.red_min_bytes
            drop_p = min(1.0, excess / span)
            if self.rng.random() < drop_p:
                self.dropped_red += 1
                return
        if config.ecn_threshold_bytes is not None and self.bytes_queued > config.ecn_threshold_bytes:
            if frame.ip is not None and frame.ip.mark_ce():
                self.marked_ce += 1
        bytes_queued = self.bytes_queued + size
        if bytes_queued > self.peak_bytes:
            self.peak_bytes = bytes_queued
        self.enqueued += 1
        if self.draining:
            self.queue.append((frame, size))
            self.bytes_queued = bytes_queued
        else:
            # An idle port puts the frame on the wire where it is offered,
            # and pushes the end of its wire time: never in place, as the
            # offer may come from anywhere in a dispatch.
            self.draining = True
            self._on_wire = frame, size
            self.sim._schedule(self.sim.now + wire_time_ns(config.rate_bps, size), self._drain)

    def _drain(self, _step):
        """Send the frame whose wire time ended, then sleep the next one's:
        ``Simulator._after`` as a loop, not a call."""
        sim, queue = self.sim, self.queue
        while True:
            self.port._send(*self._on_wire)
            if not queue:
                self._on_wire = None
                self.draining = False
                return
            self._on_wire = frame, size = queue.popleft()
            self.bytes_queued -= size
            delay = wire_time_ns(self.config.rate_bps, size)
            if delay <= 0 or not sim._next_in_line(sim.now + delay):
                sim._schedule(sim.now + delay, self._drain)
                return
            sim.now += delay


class Switch:
    """A store-and-forward switch with per-egress-port queue policy."""

    def __init__(self, sim, name="switch", default_config=None, rng=None, faults=None):
        self.sim = sim
        self.name = name
        self.default_config = default_config or SwitchPortConfig()
        self.rng = rng
        #: The one ingress hook (a repro.faults.WireFaultInjector or a
        #: repro.net.LossInjector): ``admit(frame)`` returns
        #: [(frame, extra_delay_ns), ...] — an empty list drops, several
        #: entries duplicate, a delay reorders.
        self.faults = faults
        self._ports = []
        self._egress = []
        self._mac_table = {}
        self.forwarded = 0
        self.flooded = 0
        self.unroutable = 0

    def new_port(self, mac=None, config=None):
        """Create a switch port; ``mac`` statically binds an address."""
        index = len(self._ports)
        port = Port(self.sim, name="{}[{}]".format(self.name, index))
        port.receiver = lambda frame, i=index: self._ingress(i, frame)
        self._ports.append(port)
        self._egress.append(_EgressQueue(self.sim, port, config or self.default_config, self.rng))
        if mac is not None:
            self._mac_table[mac] = index
        return port

    def set_port_config(self, port, config):
        """Replace the egress policy of ``port`` (e.g. shape to 10 Gbps)."""
        index = self._ports.index(port)
        self._egress[index].config = config

    def egress_stats(self, port):
        return self._egress[self._ports.index(port)]

    def _ingress(self, in_index, frame):
        # Learn source MAC.
        self._mac_table.setdefault(frame.eth.src, in_index)
        if self.faults is not None:
            for out_frame, delay_ns in self.faults.admit(frame):
                if delay_ns > 0:
                    when = self.sim.now + int(delay_ns)
                    self.sim._schedule(when, lambda _step, f=out_frame, i=in_index: self._forward(i, f))
                else:
                    self._forward(in_index, out_frame)
            return
        self._forward(in_index, frame)

    def _forward(self, in_index, frame):
        dst = frame.eth.dst
        if dst == BROADCAST_MAC:
            self.flooded += 1
            for index, egress in enumerate(self._egress):
                if index != in_index:
                    egress.offer(frame.copy())
            return
        out_index = self._mac_table.get(dst)
        if out_index is None or out_index == in_index:
            self.unroutable += 1
            return
        self.forwarded += 1
        self._egress[out_index].offer(frame)
