"""The simulated network buffer: a parsed frame plus payload bytes.

The simulation hot path passes :class:`Frame` objects (parsed headers, no
repeated byte-level serialization); :meth:`Frame.pack` produces real wire
bytes for the pcap writer, the XDP VM, and round-trip tests.
"""

import itertools

from repro.proto.arp import ArpHeader
from repro.proto.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetHeader
from repro.proto.ip import HEADER_LEN as IP_HEADER_LEN
from repro.proto.ip import IPPROTO_TCP, Ipv4Header
from repro.proto.tcp import BASE_HEADER_LEN as TCP_HEADER_LEN
from repro.proto.tcp import TcpHeader

_frame_ids = itertools.count(1)


class Frame:
    """An Ethernet frame in flight.

    ``eth`` is always present. ``ip``/``tcp``/``arp`` are parsed headers or
    None. ``payload`` is the L4 payload as bytes. ``pipeline_seq`` is the
    FlexTOE data-path sequencing tag (§3.2); it is not on the wire.
    """

    __slots__ = ("eth", "ip", "tcp", "arp", "payload", "frame_id", "pipeline_seq", "born_at", "meta")

    def __init__(self, eth, ip=None, tcp=None, arp=None, payload=b"", born_at=0):
        self.eth = eth
        self.ip = ip
        self.tcp = tcp
        self.arp = arp
        self.payload = payload
        self.frame_id = next(_frame_ids)
        self.pipeline_seq = None
        self.born_at = born_at
        self.meta = None

    @property
    def wire_len(self):
        """On-wire length in bytes (without FCS/preamble). The IPv4 and TCP
        base headers are constants; the Ethernet header is not (a VLAN tag)."""
        length = self.eth.wire_len
        if self.arp is not None:
            return length + self.arp.wire_len
        if self.ip is not None:
            length += IP_HEADER_LEN
        tcp = self.tcp
        if tcp is not None:
            length += TCP_HEADER_LEN + tcp.options.wire_len
        return length + len(self.payload)

    def set_meta(self, key, value):
        """Attach pipeline metadata (FlexTOE module API, §3.3)."""
        if self.meta is None:
            self.meta = {}
        self.meta[key] = value

    def get_meta(self, key, default=None):
        if self.meta is None:
            return default
        return self.meta.get(key, default)

    def pack(self):
        """Serialize to wire bytes, computing IP and TCP checksums and the
        IP ``total_len`` (the one place that field is written)."""
        out = bytearray(self.eth.pack())
        if self.arp is not None:
            out += self.arp.pack()
            return bytes(out)
        if self.ip is not None:
            l4 = b""
            if self.tcp is not None:
                self.ip.total_len = IP_HEADER_LEN + self.tcp.wire_len + len(self.payload)
                pseudo = self.ip.pseudo_header(self.tcp.wire_len + len(self.payload))
                l4 = self.tcp.pack(pseudo_header=pseudo, payload=self.payload)
            out += self.ip.pack()
            out += l4
            out += self.payload
        return bytes(out)

    @classmethod
    def unpack(cls, data):
        """Parse wire bytes back into a Frame."""
        eth, offset = EthernetHeader.unpack(data)
        if eth.ethertype == ETHERTYPE_ARP:
            arp, _ = ArpHeader.unpack(data[offset:])
            return cls(eth, arp=arp)
        if eth.ethertype != ETHERTYPE_IPV4:
            return cls(eth, payload=bytes(data[offset:]))
        ip, ip_len = Ipv4Header.unpack(data[offset:])
        l4_start = offset + ip_len
        l4_end = offset + ip.total_len
        if ip.proto != IPPROTO_TCP:
            return cls(eth, ip=ip, payload=bytes(data[l4_start:l4_end]))
        tcp, tcp_len = TcpHeader.unpack(data[l4_start:l4_end])
        payload = bytes(data[l4_start + tcp_len : l4_end])
        return cls(eth, ip=ip, tcp=tcp, payload=payload)

    def copy(self):
        """Deep-enough copy: headers duplicated, payload shared (immutable)."""
        frame = Frame(
            self.eth.copy(),
            ip=self.ip.copy() if self.ip else None,
            tcp=self.tcp.copy() if self.tcp else None,
            arp=self.arp,
            payload=self.payload,
            born_at=self.born_at,
        )
        frame.pipeline_seq = self.pipeline_seq
        if self.meta:
            frame.meta = dict(self.meta)
        return frame

    def __repr__(self):
        if self.arp is not None:
            return "<Frame#{} {!r}>".format(self.frame_id, self.arp)
        if self.tcp is not None:
            return "<Frame#{} {!r} len={}>".format(self.frame_id, self.tcp, len(self.payload))
        return "<Frame#{} {!r}>".format(self.frame_id, self.eth)


def make_tcp_frame(
    src_mac,
    dst_mac,
    src_ip,
    dst_ip,
    sport,
    dport,
    seq=0,
    ack=0,
    flags=0,
    window=0xFFFF,
    payload=b"",
    options=None,
    ecn=0,
    born_at=0,
):
    """Convenience constructor used throughout stacks and tests."""
    eth = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4)
    tcp = TcpHeader(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags, window=window, options=options)
    ip = Ipv4Header(src=src_ip, dst=dst_ip, proto=IPPROTO_TCP, ecn=ecn)
    return Frame(eth, ip=ip, tcp=tcp, payload=payload, born_at=born_at)


__all__ = ["Frame", "make_tcp_frame"]
