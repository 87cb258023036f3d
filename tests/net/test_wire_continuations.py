"""The wire as continuations: a link hop is one ``Step`` delivering the
oldest frame in flight on its direction, and a switch egress drain has no
process — an idle port puts an offered frame on the wire at once, pushes
the end of its wire time, and sleeps each later frame's under the
kernel's rule 3 test (DESIGN §12). Both push the same heap entries, at
the same times and in the same order, as a ``Timeout``-per-hop link and a
process-per-burst drain started in the dispatch that offers its first
frame, kept below as the reference — so a run is the same run with the
same number of events. Random traffic (sizes, send instants, shaped rates,
ECN and RED thresholds, broadcast floods, unknown destinations, a wire
fault that delays and duplicates, a link flap) is driven the three ways a
caller can drive the kernel (``tests/sim/drives.py``)."""

import random
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Switch, SwitchPortConfig, Topology
from repro.net.link import wire_time_ns
from repro.proto import make_tcp_frame
from repro.proto.ip import ECN_ECT0, ECN_NOT_ECT
from repro.sim import Simulator, Timeout
from tests.sim.drives import DRIVES, unmarked
from tests.sim.test_engine_continuations import Started

BROADCAST = (1 << 48) - 1
UNKNOWN_MAC = 0xDEAD

# -- the reference: the wire as it was ----------------------------------------


class RefDirection:
    """A link direction whose hop is a ``Timeout`` with a closure; the frame
    is measured when sent and again when it arrives."""

    def __init__(self, direction):
        self.link = direction.link
        self.sim = direction.sim
        self.rate_bps = direction.rate_bps
        self.prop_delay_ns = direction.prop_delay_ns
        self.dst = direction.dst
        self.busy_until = 0

    def transmit(self, frame, _size):
        if not self.link.up:
            self.link.drops_link_down += 1
            return
        start = max(self.sim.now, self.busy_until)
        if self.rate_bps is None:
            done = start
        else:
            done = start + wire_time_ns(self.rate_bps, frame.wire_len)
        self.busy_until = done
        arrival = done + self.prop_delay_ns
        event = Timeout(self.sim, int(arrival - self.sim.now))
        dst = self.dst
        event.callbacks.append(lambda _ev, f=frame, d=dst: d.deliver(f, f.wire_len))


class RefEgressQueue:
    """A bounded byte queue of bare frames, drained by a process started
    per burst, where its first frame is offered, that measures each frame
    again as it leaves."""

    def __init__(self, sim, port, config, rng):
        self.sim = sim
        self.port = port
        self.config = config
        self.rng = rng
        self.queue = deque()
        self.bytes_queued = 0
        self.draining = False
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
        self.queue.append(frame)
        self.bytes_queued += size
        if self.bytes_queued > self.peak_bytes:
            self.peak_bytes = self.bytes_queued
        self.enqueued += 1
        if not self.draining:
            self.draining = True
            Started(self.sim, self._drain(), name="switch-egress")

    def _drain(self):
        while self.queue:
            frame = self.queue.popleft()
            self.bytes_queued -= frame.wire_len
            yield self.sim.timeout(wire_time_ns(self.config.rate_bps, frame.wire_len))
            self.port.send(frame)
        self.draining = False


# -- a random testbed on either wire ------------------------------------------


class Faults:
    """A wire-fault hook: the k-th frame it admits is held ``delays[k]`` ns
    (0 passes it), and also duplicated when ``k`` is in ``dups``."""

    def __init__(self, delays, dups):
        self.delays = delays
        self.dups = dups
        self.seen = 0

    def admit(self, frame):
        k = self.seen
        self.seen += 1
        delay = self.delays[k % len(self.delays)] if self.delays else 0
        out = [(frame, delay)]
        if k in self.dups:
            out.append((frame.copy(), delay // 2))
        return out


def _config(spec):
    rate, capacity, ecn, red = spec
    red_min, red_max = (None, None) if red is None else (red, red + 600)
    return SwitchPortConfig(
        rate_bps=rate, queue_capacity_bytes=capacity, ecn_threshold_bytes=ecn,
        red_min_bytes=red_min, red_max_bytes=red_max,
    )


def transcript(reference, world, drive, sentinel_sleeps, slices):
    """Run ``world`` on the reference or the present wire under ``drive``;
    returns the delivery log, events dispatched and every counter."""
    configs, link_rate, link_delay, sends, delays, dups, flap, seed = world
    sim = Simulator()
    switch = Switch(sim, rng=random.Random(seed), faults=Faults(delays, dups) if delays else None)
    topo = Topology(sim, switch=switch, link_rate_bps=link_rate, link_delay_ns=link_delay)
    stations = [topo.attach("s%d" % i, mac=0x10 + i, ip=0x0A000001 + i, config=_config(spec))
                for i, spec in enumerate(configs)]
    if reference:
        for station in stations:
            for port in (station.port, station.switch_port):
                port.out = RefDirection(port.out)
        for i, queue in enumerate(switch._egress):
            switch._egress[i] = RefEgressQueue(queue.sim, queue.port, queue.config, queue.rng)
    base = make_tcp_frame(0, 0, 0, 0, 0, 0).frame_id
    log = []
    for station in stations:
        station.port.receiver = lambda frame, name=station.name: log.append(
            (sim.now, name, frame.frame_id - base, len(frame.payload), frame.ip.ecn)
        )

    def frame_for(src, dst, size, ect):
        dst_mac = BROADCAST if dst == "bcast" else UNKNOWN_MAC if dst >= len(stations) else 0x10 + dst
        return make_tcp_frame(0x10 + src, dst_mac, 1, 2, 3, 4, payload=b"x" * size,
                              ecn=ECN_ECT0 if ect else ECN_NOT_ECT)

    def sender(src, plan):
        for at, dst, size, ect in plan:
            yield sim.timeout(max(0, at - sim.now))
            stations[src].port.send(frame_for(src, dst, size, ect))

    by_sender = {}
    for src, at, dst, size, ect, by_process in sends:
        src %= len(stations)
        if by_process:
            by_sender.setdefault(src, []).append((at, dst, size, ect))
        else:
            Timeout(sim, at).callbacks.append(
                lambda _ev, a=(src, dst, size, ect): stations[a[0]].port.send(frame_for(*a)))
    for src, plan in sorted(by_sender.items()):
        sim.process(sender(src, sorted(plan, key=lambda send: send[0])))
    if flap is not None:
        index, down_at, up_for = flap
        link = stations[index % len(stations)].port.link
        Timeout(sim, down_at).callbacks.append(lambda _ev: link.set_up(False))
        Timeout(sim, down_at + up_for).callbacks.append(lambda _ev: link.set_up(True))

    def sentinel():
        for ns in sentinel_sleeps:
            yield sim.timeout(ns)
            log.append((sim.now, "sentinel"))

    target = sim.process(sentinel())
    drive(sim, target, slices, log)
    counters = (
        (switch.forwarded, switch.flooded, switch.unroutable),
        [(q.enqueued, q.dropped_tail, q.dropped_red, q.marked_ce, q.peak_bytes, q.bytes_queued, q.draining)
         for q in switch._egress],
        [(p.tx_frames, p.tx_bytes, p.rx_frames, p.rx_bytes, p.rx_fcs_drops)
         for s in stations for p in (s.port, s.switch_port)],
        [s.port.link.drops_link_down for s in stations],
    )
    return log, sim.processed_events, sim.now, counters


_RATES = st.sampled_from([100_000_000, 1_000_000_000, 10_000_000_000, 100_000_000_000])
_PORT = st.tuples(
    _RATES,
    st.sampled_from([400, 3_000, 2 * 1024 * 1024]),
    st.one_of(st.none(), st.integers(0, 2_000)),
    st.one_of(st.none(), st.integers(0, 2_000)),
)
_SEND = st.tuples(
    st.integers(0, 3),                                   # sender
    st.integers(0, 40_000),                              # instant
    st.one_of(st.integers(0, 3), st.just("bcast")),      # destination (3: unknown)
    st.sampled_from([0, 1, 64, 200, 1_000, 1_460]),      # payload bytes
    st.booleans(),                                       # ECN-capable
    st.booleans(),                                       # sent by a process, else a callback
)
_WORLD = st.tuples(
    st.lists(_PORT, min_size=2, max_size=4),
    st.sampled_from([1_000_000_000, 40_000_000_000]),
    st.sampled_from([0, 500, 3_000]),
    st.lists(_SEND, max_size=24),
    st.lists(st.sampled_from([0, 0, 1, 700, 20_000]), max_size=5),
    st.sets(st.integers(0, 12), max_size=3),
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 30_000), st.integers(0, 20_000))),
    st.integers(0, 3),
)
_SLEEPS = st.lists(st.integers(0, 20_000), max_size=4)
_SLICES = st.lists(st.integers(0, 60_000), max_size=5)

_BURST = [(0, t, 1, 1_460, True, True) for t in (0, 0, 0, 100)]


@settings(max_examples=150, deadline=None)
@given(_WORLD, _SLEEPS, _SLICES)
# A burst into a shaped, ECN-marking port with a shallow RED band.
@example(([(10 ** 11, 2 ** 21, None, None), (10 ** 8, 3_000, 1_000, 1_500)], 40_000_000_000, 500,
          _BURST, [], set(), None, 1), [5_000], [20_000])
# A broadcast flood: several offers, and drains started, in one dispatch.
@example(([(10 ** 9, 2 ** 21, None, None)] * 4, 1_000_000_000, 0,
          [(0, 0, "bcast", 64, False, False), (1, 0, "bcast", 64, False, True), (2, 10, 3, 0, False, True)],
          [], set(), None, 0), [], [])
# Delayed and duplicated frames across a link flap.
@example(([(10 ** 10, 2 ** 21, 0, None)] * 3, 1_000_000_000, 3_000,
          [(0, t, 1, 200, True, t % 2 == 0) for t in range(0, 20_000, 2_500)],
          [0, 700, 20_000], {1, 3}, (1, 4_000, 6_000), 2), [1_000, 9_000], [3_000, 12_000])
def test_the_wire_pushes_what_its_processes_and_timeouts_pushed(world, sentinel_sleeps, slices):
    runs = set()
    for drive in DRIVES:
        reference = transcript(True, world, drive, sentinel_sleeps, slices)
        observed = transcript(False, world, drive, sentinel_sleeps, slices)
        assert observed == reference, drive.__name__
        runs.add(unmarked(observed[0]))
    assert len(runs) == 1  # one run, however it was driven
