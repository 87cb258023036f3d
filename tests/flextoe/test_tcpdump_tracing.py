"""tcpdump capture (filters, pcap format) and tracepoints."""

import struct

from repro.flextoe.tcpdump import CAPTURE_COST_CYCLES, FILTER_COST_CYCLES, PacketCapture, PacketFilter
from repro.flextoe.tracing import TRACEPOINTS, TracepointRegistry
from repro.proto import FLAG_ACK, FLAG_SYN, make_tcp_frame, str_to_ip

SRC = str_to_ip("10.0.0.1")
DST = str_to_ip("10.0.0.2")


def frame(flags=FLAG_ACK, sport=1000, dport=2000, payload=b"abc"):
    return make_tcp_frame(0xA, 0xB, SRC, DST, sport, dport, flags=flags, payload=payload)


def test_filter_matches_fields():
    f = PacketFilter(src_ip=SRC, dport=2000)
    assert f.matches(frame())
    assert not f.matches(frame(dport=2001))
    f2 = PacketFilter(tcp_flags_any=FLAG_SYN)
    assert f2.matches(frame(flags=FLAG_SYN))
    assert not f2.matches(frame(flags=FLAG_ACK))


def test_capture_records_and_costs():
    capture = PacketCapture(snaplen=64)
    assert capture.cost_cycles(frame()) == CAPTURE_COST_CYCLES
    assert capture.capture(1000, "rx", frame())
    assert len(capture) == 1
    now, direction, orig_len, wire = capture.records[0]
    assert direction == "rx"
    assert len(wire) <= 64
    assert orig_len == frame().wire_len


def test_filtered_capture_costs_less_for_misses():
    capture = PacketCapture(packet_filter=PacketFilter(dport=9999))
    assert capture.cost_cycles(frame()) == FILTER_COST_CYCLES
    assert not capture.capture(0, "rx", frame())
    assert len(capture) == 0


def test_capture_limit():
    capture = PacketCapture(limit=2)
    for _ in range(4):
        capture.capture(0, "rx", frame())
    assert len(capture) == 2
    assert capture.truncated_drops == 2
    assert capture.matched == 4


def test_pcap_file_format(tmp_path):
    capture = PacketCapture(snaplen=128)
    capture.capture(1_500_000_000, "rx", frame())
    capture.capture(2_000_000_123, "tx", frame(flags=FLAG_SYN))
    path = tmp_path / "trace.pcap"
    capture.write_pcap(str(path))
    data = path.read_bytes()
    magic, major, minor = struct.unpack_from("!IHH", data, 0)
    assert magic == 0xA1B2C3D4
    assert (major, minor) == (2, 4)
    # First record header: ts_sec = 1.
    ts_sec, ts_usec, incl, orig = struct.unpack_from("!IIII", data, 24)
    assert ts_sec == 1
    assert incl <= 128


def test_pcap_write_read_roundtrip(tmp_path):
    from repro.flextoe.tcpdump import read_pcap
    from repro.proto import Frame

    capture = PacketCapture(snaplen=2048)
    f1, f2 = frame(payload=b"first"), frame(flags=FLAG_SYN, payload=b"")
    capture.capture(3_000_000_500, "rx", f1)
    capture.capture(4_000_001_000, "tx", f2)
    path = tmp_path / "roundtrip.pcap"
    capture.write_pcap(str(path))
    records = read_pcap(str(path))
    assert len(records) == 2
    ts, wire, orig = records[0]
    assert ts == 3_000_000_000  # microsecond pcap resolution
    assert orig == f1.wire_len
    parsed = Frame.unpack(wire)
    assert parsed.payload == b"first"
    assert parsed.tcp.sport == 1000


def test_captured_segments_carry_the_ip_length_they_have_on_the_wire():
    # Frame.pack() is the one writer of ip.total_len: a data segment whose
    # options the DMA stage replaced, and an ACK, both say what they carry.
    from repro.harness import Testbed
    from repro.proto import Frame

    bed = Testbed(seed=1)
    server, client = bed.add_flextoe_host("server"), bed.add_flextoe_host("client")
    bed.seed_all_arp()
    captures = []
    for host in (server, client):
        host.nic.datapath.capture = PacketCapture(snaplen=2048)
        captures.append(host.nic.datapath.capture)
    server_ctx, client_ctx = server.new_context(), client.new_context()

    def server_app():
        sock = yield from server_ctx.accept(server_ctx.listen(7000))
        yield from server_ctx.send(sock, (yield from server_ctx.recv(sock, 64)))

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.send(sock, b"x" * 100)
        return (yield from client_ctx.recv(sock, 100))

    bed.sim.process(server_app())
    bed.sim.run(until=bed.sim.process(client_app()))
    bed.sim.run(until=bed.sim.now + 1_000_000)
    kinds = set()
    for capture in captures:
        for _now, _direction, orig_len, wire in capture.records:
            parsed = Frame.unpack(wire)
            assert parsed.ip.total_len == orig_len - parsed.eth.wire_len
            kinds.add("data" if parsed.payload else "ack")
    assert kinds == {"data", "ack"}


def test_read_pcap_rejects_garbage(tmp_path):
    import pytest

    from repro.flextoe.tcpdump import read_pcap

    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00" * 24)
    with pytest.raises(ValueError):
        read_pcap(str(path))


def test_tracepoint_costs_only_when_enabled():
    registry = TracepointRegistry(enabled=False)
    assert registry.hit(0, "proto", "rx.segment") == 0
    registry.enable_all()
    cost = registry.hit(1, "proto", "rx.segment")
    assert cost == TRACEPOINTS["rx.segment"]
    assert registry.count("rx.segment") == 1
    registry.disable_all()
    assert registry.hit(2, "proto", "rx.segment") == 0


def test_tracepoint_selective_enable():
    registry = TracepointRegistry()
    registry.enable(["rx.out_of_order"])
    assert registry.cost("rx.out_of_order") > 0
    assert registry.cost("rx.segment") == 0


def test_tracepoint_catalog_size():
    # The paper implements 48 tracepoints; the catalog holds the ones
    # this data path hits (which ones: the last test of this file), and
    # its docstring says how many.
    assert len(TRACEPOINTS) == 16


def test_field_filters_reject_non_tcp_frames():
    # A field filter must treat frames without IP/TCP headers as misses,
    # not crash on the absent headers.
    from repro.proto import ARP_REQUEST, ArpHeader, EthernetHeader, ETHERTYPE_ARP, Frame

    arp = Frame(
        EthernetHeader(0xFFFFFFFFFFFF, 0xA, ethertype=ETHERTYPE_ARP),
        arp=ArpHeader(ARP_REQUEST, 0xA, SRC, 0, DST),
    )
    assert not PacketFilter(src_ip=SRC).matches(arp)
    assert not PacketFilter(sport=1000).matches(arp)
    assert not PacketFilter(tcp_flags_any=FLAG_SYN).matches(arp)
    assert PacketFilter().matches(arp)  # empty filter matches anything
    capture = PacketCapture(packet_filter=PacketFilter(dport=2000))
    assert not capture.capture(0, "rx", arp)
    assert capture.cost_cycles(arp) == FILTER_COST_CYCLES


def test_pcap_timestamp_microsecond_rounding(tmp_path):
    from repro.flextoe.tcpdump import read_pcap

    capture = PacketCapture()
    capture.capture(1_000_000_999, "rx", frame())  # sub-µs part truncates
    path = tmp_path / "ts.pcap"
    capture.write_pcap(str(path))
    (ts_ns, _data, _orig), = read_pcap(str(path))
    assert ts_ns == 1_000_000_000


def _hit_names():
    """Every name ``src/repro/flextoe`` passes to ``tracepoints.hit``:
    the third argument of each ``.hit(now, source, name)`` call, both
    arms of a conditional, and ``"notify." + kind`` expanded over the
    ``NOTIFY_*`` kinds ``_notify`` is called with."""
    import ast
    import glob
    import os

    import repro.flextoe
    from repro.flextoe import descriptors

    names, notify_kinds, prefixes = set(), set(), set()
    for path in glob.glob(os.path.join(os.path.dirname(repro.flextoe.__file__), "*.py")):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "_notify" and len(node.args) >= 2:
                notify_kinds.add(getattr(descriptors, node.args[1].id))
            if node.func.attr != "hit" or len(node.args) < 3:
                continue
            name = node.args[2]
            arms = [name.body, name.orelse] if isinstance(name, ast.IfExp) else [name]
            for arm in arms:
                if isinstance(arm, ast.BinOp):
                    assert isinstance(arm.op, ast.Add) and isinstance(arm.right, ast.Name)
                    prefixes.add(arm.left.value)
                else:
                    names.add(arm.value)
    assert prefixes == {"notify."}
    return names | {"notify." + kind for kind in notify_kinds}


def test_catalogue_is_exactly_what_the_data_path_hits():
    # enable_all() must not advertise telemetry that cannot fire, and a
    # hit on an uncatalogued name would be charged a made-up 20 cycles.
    assert _hit_names() == set(TRACEPOINTS)
