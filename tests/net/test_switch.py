"""Switch forwarding, queue policy (ECN/WRED/tail drop), loss injection."""

import random

from repro.net import Link, LossInjector, Port, Switch, SwitchPortConfig, Topology
from repro.proto import make_tcp_frame
from repro.proto.ip import ECN_ECT0
from repro.sim import Simulator


def build_pair(sim, switch=None, **topo_kwargs):
    topo = Topology(sim, switch=switch, **topo_kwargs)
    a = topo.attach("a", mac=0xA, ip=0x0A000001)
    b = topo.attach("b", mac=0xB, ip=0x0A000002)
    return topo, a, b


def frame_a_to_b(payload=b"x" * 64, ecn=0):
    return make_tcp_frame(0xA, 0xB, 0x0A000001, 0x0A000002, 1, 2, payload=payload, ecn=ecn)


def test_unicast_forwarding():
    sim = Simulator()
    topo, a, b = build_pair(sim)
    got = []
    b.port.receiver = lambda frame: got.append(frame)
    a.port.receiver = lambda frame: got.append(("wrong", frame))
    a.port.send(frame_a_to_b())
    sim.run()
    assert len(got) == 1
    assert got[0].eth.dst == 0xB


def test_broadcast_floods_other_ports():
    sim = Simulator()
    topo = Topology(sim)
    stations = [topo.attach("s%d" % i, mac=0x10 + i, ip=i) for i in range(4)]
    hits = []
    for station in stations:
        station.port.receiver = lambda frame, n=station.name: hits.append(n)
    bcast = make_tcp_frame(0x10, (1 << 48) - 1, 1, 2, 1, 2)
    stations[0].port.send(bcast)
    sim.run()
    assert sorted(hits) == ["s1", "s2", "s3"]
    assert topo.switch.flooded == 1


def test_unknown_mac_dropped_and_counted():
    sim = Simulator()
    topo, a, b = build_pair(sim)
    b.port.receiver = lambda frame: None
    unknown = make_tcp_frame(0xA, 0xDEAD, 1, 2, 1, 2)
    a.port.send(unknown)
    sim.run()
    assert topo.switch.unroutable == 1


def test_source_learning():
    sim = Simulator()
    switch = Switch(sim)
    topo = Topology(sim, switch=switch)
    a = topo.attach("a", mac=0xA, ip=1)
    # b attaches without a static MAC binding.
    host_b = Port(sim, "b")
    sw_b = switch.new_port()
    Link(sim, host_b, sw_b, rate_bps=1_000_000_000, prop_delay_ns=0)
    got = []
    host_b.receiver = lambda frame: got.append(frame)
    a.port.receiver = lambda frame: got.append(frame)
    # b sends first; switch learns b's MAC from the source field.
    host_b.send(make_tcp_frame(0xB, 0xA, 2, 1, 2, 1))
    sim.run()
    a.port.send(frame_a_to_b())
    sim.run()
    assert len(got) == 2


def test_tail_drop_on_full_queue():
    sim = Simulator()
    config = SwitchPortConfig(rate_bps=1_000_000_000, queue_capacity_bytes=500)
    switch = Switch(sim, default_config=config)
    topo, a, b = build_pair(sim, switch=switch)
    received = []
    b.port.receiver = lambda frame: received.append(frame)
    for _ in range(20):
        a.port.send(frame_a_to_b(payload=b"y" * 100))
    sim.run()
    stats = switch.egress_stats(b.switch_port)
    assert stats.dropped_tail > 0
    assert len(received) + stats.dropped_tail == 20


def test_ecn_marking_above_threshold():
    sim = Simulator()
    config = SwitchPortConfig(
        rate_bps=100_000_000, queue_capacity_bytes=1 << 20, ecn_threshold_bytes=300
    )
    switch = Switch(sim, default_config=config)
    topo, a, b = build_pair(sim, switch=switch)
    marked = []
    b.port.receiver = lambda frame: marked.append(frame.ip.ce_marked)
    for _ in range(30):
        a.port.send(frame_a_to_b(payload=b"z" * 100, ecn=ECN_ECT0))
    sim.run()
    assert any(marked)
    assert not marked[0]  # first frame saw an empty queue
    assert switch.egress_stats(b.switch_port).marked_ce == sum(marked)


def test_ecn_not_marked_for_not_ect_traffic():
    sim = Simulator()
    config = SwitchPortConfig(rate_bps=100_000_000, ecn_threshold_bytes=100)
    switch = Switch(sim, default_config=config)
    topo, a, b = build_pair(sim, switch=switch)
    marked = []
    b.port.receiver = lambda frame: marked.append(frame.ip.ce_marked)
    for _ in range(10):
        a.port.send(frame_a_to_b(payload=b"z" * 200, ecn=0))
    sim.run()
    assert not any(marked)


def test_wred_drops_between_thresholds():
    sim = Simulator()
    config = SwitchPortConfig(
        rate_bps=100_000_000,
        queue_capacity_bytes=1 << 20,
        red_min_bytes=200,
        red_max_bytes=2000,
    )
    switch = Switch(sim, default_config=config, rng=random.Random(1))
    topo, a, b = build_pair(sim, switch=switch)
    b.port.receiver = lambda frame: None
    for _ in range(100):
        a.port.send(frame_a_to_b(payload=b"w" * 200))
    sim.run()
    assert switch.egress_stats(b.switch_port).dropped_red > 0


def test_shaped_port_paces_output():
    sim = Simulator()
    slow = SwitchPortConfig(rate_bps=100_000_000)  # 100 Mbps
    switch = Switch(sim)
    topo = Topology(sim, switch=switch)
    a = topo.attach("a", mac=0xA, ip=1)
    b = topo.attach("b", mac=0xB, ip=2, config=slow)
    arrivals = []
    b.port.receiver = lambda frame: arrivals.append(sim.now)
    for _ in range(5):
        a.port.send(frame_a_to_b(payload=b"p" * 1000))
    sim.run()
    gaps = [t2 - t1 for t1, t2 in zip(arrivals, arrivals[1:])]
    # 1078-byte wire frames at 100 Mbps: ~86 us spacing.
    assert all(gap > 80_000 for gap in gaps)


def test_loss_injector_drops_at_configured_rate():
    rng = random.Random(42)
    injector = LossInjector(rng, probability=0.3, protect_control=False)
    frame = frame_a_to_b()
    outcomes = [injector.admit(frame) == [] for _ in range(5000)]
    rate = sum(outcomes) / len(outcomes)
    assert 0.25 < rate < 0.35
    assert abs(injector.observed_rate - rate) < 1e-9


def test_loss_injector_protects_syn():
    from repro.proto import FLAG_SYN

    rng = random.Random(42)
    injector = LossInjector(rng, probability=1.0, protect_control=True)
    syn = make_tcp_frame(0xA, 0xB, 1, 2, 1, 2, flags=FLAG_SYN)
    data = frame_a_to_b()
    assert injector.admit(syn) == [(syn, 0)]
    assert injector.admit(data) == []


def test_switch_level_loss():
    sim = Simulator()
    injector = LossInjector(random.Random(7), probability=1.0, protect_control=False)
    switch = Switch(sim, faults=injector)
    topo, a, b = build_pair(sim, switch=switch)
    got = []
    b.port.receiver = lambda frame: got.append(frame)
    for _ in range(10):
        a.port.send(frame_a_to_b())
    sim.run()
    assert not got
    assert injector.dropped == 10
