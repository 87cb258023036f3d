"""The in-NIC attack detector: per-source features, threshold verdicts,
rate decay, and interpreter/JIT agreement."""

from repro.analysis.verifier import verify
from repro.flextoe.module import ACTION_DROP, ACTION_PASS
from repro.proto import FLAG_ACK, FLAG_RST, FLAG_SYN, make_tcp_frame, str_to_ip
from repro.xdp import XdpAdapter
from repro.xdp.builtins import (
    decay_features,
    detector_asm_program,
    read_features,
    set_thresholds,
)

ATTACKER = str_to_ip("10.0.200.1")
BENIGN = str_to_ip("10.0.0.2")
SERVER = str_to_ip("10.0.0.1")


def frame(src_ip, flags, payload=b"", sport=40000):
    return make_tcp_frame(0xA, 0xB, src_ip, SERVER, sport, 7000, flags=flags, payload=payload)


def build(jit=None, **thresholds):
    program, maps = detector_asm_program(max_sources=64)
    if thresholds:
        set_thresholds(maps, **thresholds)
    adapter = XdpAdapter(program=program, maps=maps, jit=jit)
    return adapter, maps


def test_detector_verifies():
    program, maps = detector_asm_program()
    verify(program, maps)


def test_syn_flood_threshold():
    adapter, maps = build(syn_limit=5)
    # The first syn_limit pure SYNs pass, then the source is banned.
    verdicts = [adapter.handle(frame(ATTACKER, FLAG_SYN), None) for _ in range(10)]
    assert verdicts[:5] == [ACTION_PASS] * 5
    assert verdicts[5:] == [ACTION_DROP] * 5
    # Features keep counting dropped packets — the ban is sticky.
    pkts, _bytes, syns, _rsts = read_features(maps, ATTACKER)
    assert pkts == 10
    assert syns == 10
    # A different source is unaffected.
    assert adapter.handle(frame(BENIGN, FLAG_SYN), None) == ACTION_PASS


def test_syn_ack_does_not_count_as_syn():
    adapter, maps = build(syn_limit=2)
    for _ in range(6):
        assert adapter.handle(frame(BENIGN, FLAG_SYN | FLAG_ACK), None) == ACTION_PASS
    _pkts, _bytes, syns, _rsts = read_features(maps, BENIGN)
    assert syns == 0


def test_rst_storm_threshold():
    adapter, maps = build(rst_limit=3)
    verdicts = [adapter.handle(frame(ATTACKER, FLAG_RST | FLAG_ACK), None) for _ in range(6)]
    assert verdicts[:3] == [ACTION_PASS] * 3
    assert verdicts[3:] == [ACTION_DROP] * 3


def test_flagless_junk_always_dropped():
    # No thresholds programmed at all: the protocol-validity rule alone
    # kills flag-less segments (the incast junk profile).
    adapter, maps = build()
    assert adapter.handle(frame(ATTACKER, 0, payload=b"j" * 64), None) == ACTION_DROP
    # Normal traffic still passes with zeroed thresholds.
    assert adapter.handle(frame(BENIGN, FLAG_ACK, payload=b"d" * 64), None) == ACTION_PASS
    assert adapter.handle(frame(BENIGN, FLAG_SYN), None) == ACTION_PASS


def test_runt_flood_rule():
    adapter, maps = build(pkt_floor=4, min_bpp=100)
    # Tiny bare-ACK runts: once past the packet floor, avg bytes/packet
    # (40B of IP header + nothing) sits below min_bpp -> drop.
    verdicts = [adapter.handle(frame(ATTACKER, FLAG_ACK), None) for _ in range(8)]
    assert ACTION_DROP in verdicts
    assert all(v == ACTION_DROP for v in verdicts[5:])
    # Full-size segments keep a healthy bytes/packet and pass.
    big = [adapter.handle(frame(BENIGN, FLAG_ACK, payload=b"p" * 1000), None) for _ in range(8)]
    assert big == [ACTION_PASS] * 8


def test_decay_unbans_a_stopped_source():
    adapter, maps = build(syn_limit=4)
    for _ in range(8):
        adapter.handle(frame(ATTACKER, FLAG_SYN), None)
    assert adapter.handle(frame(ATTACKER, FLAG_SYN), None) == ACTION_DROP
    # Two halvings: 9 -> 4 -> 2 SYNs, back under the limit.
    decay_features(maps)
    decay_features(maps)
    _pkts, _bytes, syns, _rsts = read_features(maps, ATTACKER)
    assert syns <= 4
    assert adapter.handle(frame(ATTACKER, FLAG_SYN), None) == ACTION_PASS


def test_jit_matches_interpreter():
    program, maps = detector_asm_program(max_sources=64)
    set_thresholds(maps, syn_limit=3, rst_limit=3, pkt_floor=4, min_bpp=100)
    interp, imaps = build(jit=False, syn_limit=3, rst_limit=3, pkt_floor=4, min_bpp=100)
    jitted = XdpAdapter(program=program, maps=maps, jit=True)
    cases = (
        [frame(ATTACKER, FLAG_SYN) for _ in range(6)]
        + [frame(ATTACKER, FLAG_RST | FLAG_ACK) for _ in range(6)]
        + [frame(BENIGN, 0)]
        + [frame(BENIGN, FLAG_ACK, payload=b"q" * 64) for _ in range(6)]
    )
    for case in cases:
        assert interp.handle(case, None) == jitted.handle(case, None)


def test_non_tcp_and_short_frames_pass():
    # Anything the program cannot parse as IPv4/TCP must pass — the
    # detector is a bouncer, not a firewall for unknown protocols.
    from repro.proto.packet import EthernetHeader, Frame

    adapter, maps = build(syn_limit=1)
    eth = EthernetHeader(dst=0xB, src=0xA, ethertype=0x0806)
    assert adapter.handle(Frame(eth), None) == ACTION_PASS
