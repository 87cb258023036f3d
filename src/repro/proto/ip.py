"""IPv4 header (no IP options) with ECN codepoints and header checksum."""

import struct

from repro.proto.checksum import checksum16

IPPROTO_TCP = 6

HEADER_LEN = 20

#: ECN codepoints (RFC 3168) carried in the low 2 bits of the TOS byte.
ECN_NOT_ECT = 0b00
ECN_ECT1 = 0b01
ECN_ECT0 = 0b10
ECN_CE = 0b11


def str_to_ip(text):
    """'10.0.0.1' -> 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError("malformed IPv4 address: {!r}".format(text))
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("malformed IPv4 address: {!r}".format(text))
        value = (value << 8) | octet
    return value


def ip_to_str(value):
    """32-bit integer -> dotted quad."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class Ipv4Header:
    """An IPv4 header. ``total_len`` covers header + L4 header + payload;
    ``Frame.pack`` is its one writer, and nothing reads it before."""

    __slots__ = ("src", "dst", "proto", "total_len", "ttl", "ident", "dscp", "ecn", "flags_df")

    def __init__(
        self,
        src,
        dst,
        proto=IPPROTO_TCP,
        total_len=HEADER_LEN,
        ttl=64,
        ident=0,
        dscp=0,
        ecn=ECN_NOT_ECT,
        flags_df=True,
    ):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.total_len = total_len
        self.ttl = ttl
        self.ident = ident
        self.dscp = dscp
        self.ecn = ecn
        self.flags_df = flags_df

    @property
    def ce_marked(self):
        return self.ecn == ECN_CE

    def mark_ce(self):
        """Apply a Congestion Experienced mark (switch ECN marking)."""
        if self.ecn in (ECN_ECT0, ECN_ECT1, ECN_CE):
            self.ecn = ECN_CE
            return True
        return False

    def pack(self):
        version_ihl = (4 << 4) | 5
        tos = ((self.dscp & 0x3F) << 2) | (self.ecn & 0x3)
        flags_frag = (0x4000 if self.flags_df else 0) | 0
        header = struct.pack(
            "!BBHHHBBHII",
            version_ihl,
            tos,
            self.total_len,
            self.ident,
            flags_frag,
            self.ttl,
            self.proto,
            0,
            self.src,
            self.dst,
        )
        cksum = checksum16(header)
        return header[:10] + struct.pack("!H", cksum) + header[12:]

    @classmethod
    def unpack(cls, data, verify_checksum=False):
        if len(data) < HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_len,
            ident,
            flags_frag,
            ttl,
            proto,
            cksum,
            src,
            dst,
        ) = struct.unpack_from("!BBHHHBBHII", data, 0)
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        ihl = (version_ihl & 0xF) * 4
        if ihl != HEADER_LEN:
            raise ValueError("IPv4 options are not supported")
        if verify_checksum and checksum16(data[:HEADER_LEN]) != 0:
            raise ValueError("bad IPv4 header checksum")
        header = cls(
            src=src,
            dst=dst,
            proto=proto,
            total_len=total_len,
            ttl=ttl,
            ident=ident,
            dscp=(tos >> 2) & 0x3F,
            ecn=tos & 0x3,
            flags_df=bool(flags_frag & 0x4000),
        )
        return header, HEADER_LEN

    def pseudo_header(self, l4_len):
        """The TCP/UDP checksum pseudo-header bytes."""
        return struct.pack("!IIBBH", self.src, self.dst, 0, self.proto, l4_len)

    def copy(self):
        return Ipv4Header(
            self.src,
            self.dst,
            self.proto,
            self.total_len,
            self.ttl,
            self.ident,
            self.dscp,
            self.ecn,
            self.flags_df,
        )

    def __repr__(self):
        return "<IPv4 {}->{} proto={} len={} ecn={}>".format(
            ip_to_str(self.src), ip_to_str(self.dst), self.proto, self.total_len, self.ecn
        )
