"""Point-to-point links and the port abstraction.

A :class:`Port` is owned by a device (NIC MAC block or switch). Its owner
sets ``receiver`` to a callable invoked for each arriving frame. A
:class:`Link` joins two ports; each direction has an independent
serializer modeling the transmit rate, plus a propagation delay. A frame
is measured once per hop, and a hop is one ``Step`` at its arrival.
"""

from collections import deque

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
        ns = int(-(-on_wire * 8 * 1_000_000_000 // rate_bps))
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
        self.out = None  # the link direction leaving this port
        self.receiver = None
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.rx_fcs_drops = 0

    def send(self, frame):
        """Transmit a frame onto the attached link."""
        self._send(frame, frame.wire_len)

    def _send(self, frame, size):
        """:meth:`send` a frame already measured at ``size`` bytes."""
        if self.out is None:
            raise RuntimeError("port {!r} is not connected".format(self.name))
        self.tx_frames += 1
        self.tx_bytes += size
        self.out.transmit(frame, size)

    def deliver(self, frame, size):
        if frame.get_meta("fcs_bad"):
            self.rx_fcs_drops += 1
            return
        self.rx_frames += 1
        self.rx_bytes += size
        if self.receiver is not None:
            self.receiver(frame)

    def __repr__(self):
        return "<Port {}>".format(self.name)


class _Direction:
    """One direction of a link: a serializer, a propagation delay and the
    frames in flight, oldest first (arrivals never decrease)."""

    __slots__ = ("link", "sim", "rate_bps", "prop_delay_ns", "dst", "busy_until", "in_flight")

    def __init__(self, link, rate_bps, prop_delay_ns, dst):
        self.link = link
        self.sim = link.sim
        self.rate_bps = rate_bps
        self.prop_delay_ns = int(prop_delay_ns)
        self.dst = dst
        self.busy_until = 0
        self.in_flight = deque()

    def transmit(self, frame, size):
        link = self.link
        if not link.up:
            link.drops_link_down += 1
            return
        start = max(self.sim.now, self.busy_until)
        if self.rate_bps is None:
            done = start
        else:
            done = start + wire_time_ns(self.rate_bps, size)
        self.busy_until = done
        self.in_flight.append((frame, size))
        self.sim._schedule(done + self.prop_delay_ns, self._arrive)

    def _arrive(self, _step):
        self.dst.deliver(*self.in_flight.popleft())


class Link:
    """A full-duplex link between two ports.

    ``rate_bps=None`` disables serialization modeling (a hop whose sender
    already paces its frames).

    A link can be administratively flapped (``set_up``) by the fault
    layer; frames offered while the link is down are silently lost, as
    on a real cable pull.
    """

    def __init__(self, sim, port_a, port_b, rate_bps=40_000_000_000, prop_delay_ns=500):
        self.sim = sim
        self.up = True
        self.drops_link_down = 0
        port_a.link = port_b.link = self
        port_a.out = _Direction(self, rate_bps, prop_delay_ns, port_b)
        port_b.out = _Direction(self, rate_bps, prop_delay_ns, port_a)

    def set_up(self, up):
        """Administrative link state (fault injection: link flap)."""
        self.up = bool(up)
