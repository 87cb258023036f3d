"""Builtin XDP modules: firewall, classifier, vlan, null, and connection
splicing — the eBPF programs through ``XdpAdapter``, standalone and on
a live NIC. Counts are read from ``XdpAdapter.results`` and the maps."""

import struct

from repro.flextoe.module import ACTION_DROP, ACTION_PASS, ACTION_REDIRECT, ACTION_TX, ModuleChain
from repro.proto import FLAG_ACK, FLAG_FIN, FLAG_RST, make_tcp_frame, str_to_ip
from repro.xdp import XDP_DROP, XDP_PASS, XDP_REDIRECT, XDP_TX, XdpAdapter
from repro.xdp.builtins import (
    SpliceEntry,
    classifier_asm_program,
    firewall_asm_program,
    null_asm_program,
    splice_asm_program,
    splice_key,
    vlan_asm_program,
)
from repro.xdp.builtins.firewall import BLACKLIST_FD, block_ip
from repro.xdp.builtins.filter import COUNTERS_FD
from repro.xdp.builtins.splice import SPLICE_FD

BAD_IP = str_to_ip("10.0.0.66")
GOOD_IP = str_to_ip("10.0.0.1")
DST_IP = str_to_ip("10.0.0.2")


def frame_from(src_ip, sport=1000, dport=2000, flags=FLAG_ACK, payload=b"x" * 10, vlan=None):
    frame = make_tcp_frame(0xA, 0xB, src_ip, DST_IP, sport, dport, flags=flags, payload=payload)
    if vlan is not None:
        frame.eth.vlan = vlan
    return frame


def read_class(counters, class_id):
    """(packets, bytes) of one classifier port class."""
    return struct.unpack("<QQ", bytes(counters.lookup(struct.pack("<I", class_id))))


def test_asm_firewall_on_vm():
    program, maps = firewall_asm_program()
    adapter = XdpAdapter(program=program, maps=maps)
    block_ip(maps[BLACKLIST_FD], BAD_IP)
    assert adapter.handle(frame_from(BAD_IP), None) == ACTION_DROP
    assert adapter.handle(frame_from(GOOD_IP), None) == ACTION_PASS
    # Per-packet cost reflects executed instructions.
    assert adapter.cost_cycles > 10


def test_firewall_unblock_through_map_delete():
    program, maps = firewall_asm_program()
    adapter = XdpAdapter(program=program, maps=maps)
    block_ip(maps[BLACKLIST_FD], BAD_IP)
    assert adapter.handle(frame_from(BAD_IP), None) == ACTION_DROP
    assert adapter.handle(frame_from(GOOD_IP), None) == ACTION_PASS
    maps[BLACKLIST_FD].delete(struct.pack("!I", BAD_IP))
    assert adapter.handle(frame_from(BAD_IP), None) == ACTION_PASS
    assert adapter.results[XDP_DROP] == 1
    assert adapter.results[XDP_PASS] == 2


def test_asm_classifier_counts_by_port():
    program, maps = classifier_asm_program()
    adapter = XdpAdapter(program=program, maps=maps)
    for _ in range(3):
        assert adapter.handle(frame_from(GOOD_IP, dport=2003), None) == ACTION_PASS
    packets, _ = read_class(maps[COUNTERS_FD], 2003 % 16)
    assert packets == 3
    assert read_class(maps[COUNTERS_FD], 2004 % 16) == (0, 0)


def test_asm_classifier_counts_bytes():
    program, maps = classifier_asm_program()
    adapter = XdpAdapter(program=program, maps=maps)
    small = frame_from(GOOD_IP, dport=5)
    large = frame_from(GOOD_IP, dport=5 + 16, payload=b"y" * 700)
    adapter.handle(small, None)
    adapter.handle(large, None)
    packets, nbytes = read_class(maps[COUNTERS_FD], 5)
    assert packets == 2
    # L3 bytes: the IP total-length field, i.e. the frame minus Ethernet.
    assert nbytes == (small.wire_len - 14) + (large.wire_len - 14)


def test_vlan_strip():
    program, maps = vlan_asm_program()
    adapter = XdpAdapter(program=program, maps=maps)
    tagged = frame_from(GOOD_IP, vlan=42)
    tagged.eth.vlan_pcp = 5
    assert adapter.handle(tagged, None) == ACTION_PASS
    assert tagged.eth.vlan == 42
    assert tagged.eth.vlan_pcp == 0
    tagged_cost = adapter.cost_cycles
    untagged = frame_from(GOOD_IP)
    before = untagged.pack()
    assert adapter.handle(untagged, None) == ACTION_PASS
    assert untagged.pack() == before
    assert adapter.cost_cycles < tagged_cost  # took the early exit


def test_null_program():
    program, maps = null_asm_program()
    adapter = XdpAdapter(program=program, maps=maps)
    assert adapter.handle(frame_from(GOOD_IP), None) == ACTION_PASS
    assert adapter.results[XDP_PASS] == 1


def test_splice_rewrites_and_tx():
    program, maps = splice_asm_program()
    key = splice_key(GOOD_IP, DST_IP, 1000, 2000)
    entry = SpliceEntry(
        remote_mac=0xCC,
        remote_ip=str_to_ip("10.0.0.3"),
        local_port=7777,
        remote_port=8888,
        seq_delta=1000,
        ack_delta=2000,
    )
    maps[SPLICE_FD].update(key, entry.pack())
    adapter = XdpAdapter(program=program, maps=maps)
    frame = frame_from(GOOD_IP, sport=1000, dport=2000)
    frame.tcp.seq = 100
    frame.tcp.ack = 200
    assert adapter.handle(frame, None) == ACTION_TX
    assert frame.eth.src == 0xB
    assert frame.eth.dst == 0xCC
    assert frame.ip.src == DST_IP
    assert frame.ip.dst == str_to_ip("10.0.0.3")
    assert (frame.tcp.sport, frame.tcp.dport) == (7777, 8888)
    assert frame.tcp.seq == 1100
    assert frame.tcp.ack == 2200
    assert frame.payload == b"x" * 10
    assert adapter.results[XDP_TX] == 1


def test_splice_miss_passes_and_fin_removes():
    program, maps = splice_asm_program()
    table = maps[SPLICE_FD]
    adapter = XdpAdapter(program=program, maps=maps)
    assert adapter.handle(frame_from(GOOD_IP), None) == ACTION_PASS
    key = splice_key(GOOD_IP, DST_IP, 1000, 2000)
    for flag in (FLAG_FIN, FLAG_RST):
        table.update(key, SpliceEntry(0xCC, 1, 1, 1, 0, 0).pack())
        assert adapter.handle(frame_from(GOOD_IP, flags=FLAG_ACK | flag), None) == ACTION_REDIRECT
        assert table.lookup(key) is None
    # A control segment of a connection that is not spliced is not ours.
    assert adapter.handle(frame_from(GOOD_IP, flags=FLAG_ACK | FLAG_FIN), None) == ACTION_PASS
    assert adapter.results[XDP_REDIRECT] == 2
    assert adapter.results[XDP_PASS] == 2


def test_module_chain_stops_on_non_pass():
    fw_program, fw_maps = firewall_asm_program()
    block_ip(fw_maps[BLACKLIST_FD], BAD_IP)
    cls_program, cls_maps = classifier_asm_program()
    classifier = XdpAdapter(program=cls_program, maps=cls_maps)
    chain = ModuleChain([XdpAdapter(program=fw_program, maps=fw_maps), classifier])
    assert chain.run(frame_from(BAD_IP), None) == ACTION_DROP
    assert classifier.invocations == 0  # never reached
    assert read_class(cls_maps[COUNTERS_FD], 2000 % 16) == (0, 0)


def test_splice_on_live_nic():
    """Frames spliced on the NIC bounce back out the MAC without any
    host interaction."""
    from repro.flextoe import FlexToeNic
    from repro.flextoe.config import PipelineConfig
    from repro.net import Link, Port
    from repro.sim import Simulator

    sim = Simulator()
    program, maps = splice_asm_program()
    adapter = XdpAdapter(program=program, maps=maps)
    nic = FlexToeNic(sim, config=PipelineConfig.full(), ingress_modules=ModuleChain([adapter]))
    wire_a = Port(sim, "a")
    nic_port = Port(sim, "nic")
    Link(sim, wire_a, nic_port, rate_bps=40_000_000_000, prop_delay_ns=100)
    nic.attach_port(nic_port)
    returned = []
    wire_a.receiver = lambda frame: returned.append(frame)

    key = splice_key(GOOD_IP, DST_IP, 1000, 2000)
    maps[SPLICE_FD].update(key, SpliceEntry(0xDD, str_to_ip("10.9.9.9"), 5, 6, 10, 20).pack())
    wire_a.send(frame_from(GOOD_IP, sport=1000, dport=2000))
    sim.run(until=1_000_000)
    assert len(returned) == 1
    assert returned[0].eth.dst == 0xDD
    assert adapter.results[XDP_TX] == 1
    assert nic.datapath.stats.get("xdp_tx") == 1
