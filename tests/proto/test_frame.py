"""Frame composition, serialization, and parse round trips."""

from hypothesis import given
from hypothesis import strategies as st

from repro.proto import (
    FLAG_ACK,
    FLAG_PSH,
    Frame,
    TcpOptions,
    make_tcp_frame,
    str_to_ip,
    str_to_mac,
)

MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")
IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")


def make(payload=b"x" * 10, **kwargs):
    return make_tcp_frame(MAC_A, MAC_B, IP_A, IP_B, 1111, 2222, payload=payload, **kwargs)


def test_wire_len_accounts_for_everything():
    frame = make(payload=b"a" * 100)
    assert frame.wire_len == 14 + 20 + 20 + 100


def test_wire_len_with_options():
    options = TcpOptions(ts_val=1, ts_ecr=2)
    frame = make(payload=b"", options=options)
    assert frame.wire_len == 14 + 20 + 20 + 12  # timestamps pad to 12


def test_pack_unpack_roundtrip():
    frame = make(payload=b"hello", seq=100, ack=200, flags=FLAG_ACK | FLAG_PSH)
    parsed = Frame.unpack(frame.pack())
    assert parsed.tcp.seq == 100
    assert parsed.tcp.ack == 200
    assert parsed.tcp.flags == FLAG_ACK | FLAG_PSH
    assert parsed.payload == b"hello"
    assert parsed.ip.src == IP_A
    assert parsed.eth.dst == MAC_B


@given(st.binary(min_size=0, max_size=512), st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_roundtrip_any_payload(payload, seq):
    frame = make(payload=payload, seq=seq, flags=FLAG_ACK)
    parsed = Frame.unpack(frame.pack())
    assert parsed.payload == payload
    assert parsed.tcp.seq == seq
    assert parsed.wire_len == frame.wire_len


def test_pack_is_the_one_writer_of_ip_total_len():
    # A write anywhere else goes stale once a later stage replaces the TCP
    # options or the payload; pack() measures what it serializes.
    import ast
    import pathlib

    import repro

    writers = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and sub.attr == "total_len" and isinstance(sub.ctx, ast.Store):
                        writers.add((path.name, node.name))
    assert writers == {("packet.py", "pack"), ("ip.py", "__init__")}


def test_frame_ids_unique():
    a = make()
    b = make()
    assert a.frame_id != b.frame_id


def test_copy_isolates_headers_shares_payload():
    frame = make(payload=b"shared")
    frame.set_meta("flow", 3)
    dup = frame.copy()
    dup.tcp.seq = 999
    dup.set_meta("flow", 4)
    assert frame.tcp.seq != 999
    assert frame.get_meta("flow") == 3
    assert dup.payload is frame.payload


def test_meta_default():
    frame = make()
    assert frame.get_meta("missing") is None
    assert frame.get_meta("missing", 7) == 7


def test_arp_frame_roundtrip():
    from repro.proto import ArpHeader, ETHERTYPE_ARP, EthernetHeader

    eth = EthernetHeader(dst=(1 << 48) - 1, src=MAC_A, ethertype=ETHERTYPE_ARP)
    arp = ArpHeader.request(sender_mac=MAC_A, sender_ip=IP_A, target_ip=IP_B)
    frame = Frame(eth, arp=arp)
    parsed = Frame.unpack(frame.pack())
    assert parsed.arp is not None
    assert parsed.arp.target_ip == IP_B
    assert parsed.wire_len == frame.wire_len
