"""Point-to-point links and the port abstraction.

A :class:`Port` is owned by a device (NIC MAC block or switch). Its owner
sets ``receiver`` to a callable invoked for each arriving frame. A
:class:`Link` joins two ports; each direction has an independent
serializer modeling the transmit rate, plus a propagation delay.
"""

from repro.sim import Timeout

ETH_OVERHEAD = 24  # preamble(8) + FCS(4) + IFG(12) bytes per frame on the wire
MIN_FRAME = 64

#: wire_time_ns memo: rate_bps -> {length: ns}. Traffic uses a handful
#: of rates and frame sizes, so this converges almost immediately; the
#: bound guards pathological fuzzing workloads.
_WIRE_TIME_CACHE = {}
_WIRE_TIME_CACHE_MAX = 8192


def wire_time_ns(rate_bps, length):
    """Serialization time of ``length`` payload bytes at ``rate_bps``."""
    per_rate = _WIRE_TIME_CACHE.get(rate_bps)
    if per_rate is None:
        per_rate = _WIRE_TIME_CACHE[rate_bps] = {}
    ns = per_rate.get(length)
    if ns is None:
        on_wire = max(length, MIN_FRAME) + ETH_OVERHEAD
        ns = -(-on_wire * 8 * 1_000_000_000 // rate_bps)
        if len(per_rate) < _WIRE_TIME_CACHE_MAX:
            per_rate[length] = ns
    return ns


class Port:
    """One attachment point. ``receiver(frame)`` is called on arrival.

    The port models the receiving MAC's FCS check: frames marked with
    ``fcs_bad`` metadata (wire corruption, see :mod:`repro.faults`) are
    counted and dropped before the device ever sees them.
    """

    def __init__(self, sim, name="port"):
        self.sim = sim
        self.name = name
        self.link = None
        self.receiver = None
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.rx_fcs_drops = 0

    def send(self, frame):
        """Transmit a frame onto the attached link."""
        if self.link is None:
            raise RuntimeError("port {!r} is not connected".format(self.name))
        self.tx_frames += 1
        self.tx_bytes += frame.wire_len
        self.link.transmit(self, frame)

    def deliver(self, frame):
        if frame.get_meta("fcs_bad"):
            self.rx_fcs_drops += 1
            return
        self.rx_frames += 1
        self.rx_bytes += frame.wire_len
        if self.receiver is not None:
            self.receiver(frame)

    def __repr__(self):
        return "<Port {}>".format(self.name)


class _Direction:
    """One direction of a link: a serializer plus propagation delay."""

    __slots__ = ("sim", "rate_bps", "prop_delay_ns", "dst", "busy_until")

    def __init__(self, sim, rate_bps, prop_delay_ns, dst):
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.dst = dst
        self.busy_until = 0

    def transmit(self, frame):
        start = max(self.sim.now, self.busy_until)
        if self.rate_bps is None:
            done = start
        else:
            done = start + wire_time_ns(self.rate_bps, frame.wire_len)
        self.busy_until = done
        arrival = done + self.prop_delay_ns
        event = Timeout(self.sim, int(arrival - self.sim.now))
        dst = self.dst
        event.callbacks.append(lambda _ev, f=frame, d=dst: d.deliver(f))


class Link:
    """A full-duplex link between two ports.

    ``rate_bps=None`` disables serialization modeling (used between a
    switch egress queue — which already paces frames — and the next port).

    A link can be administratively flapped (``set_up``) by the fault
    layer; frames offered while the link is down are silently lost, as
    on a real cable pull.
    """

    def __init__(self, sim, port_a, port_b, rate_bps=40_000_000_000, prop_delay_ns=500):
        self.sim = sim
        self.port_a = port_a
        self.port_b = port_b
        self.up = True
        self.drops_link_down = 0
        self._a_to_b = _Direction(sim, rate_bps, prop_delay_ns, port_b)
        self._b_to_a = _Direction(sim, rate_bps, prop_delay_ns, port_a)
        port_a.link = self
        port_b.link = self

    def set_up(self, up):
        """Administrative link state (fault injection: link flap)."""
        self.up = bool(up)

    def transmit(self, src_port, frame):
        if not self.up:
            self.drops_link_down += 1
            return
        if src_port is self.port_a:
            self._a_to_b.transmit(frame)
        elif src_port is self.port_b:
            self._b_to_a.transmit(frame)
        else:
            raise RuntimeError("port is not attached to this link")
