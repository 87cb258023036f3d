"""Connection splicing (paper §3.3, Listing 1, and AccelTCP).

A proxy terminates two TCP connections and splices them: the module
looks up the segment's 4-tuple in a BPF hash map; on a hit it rewrites
MAC/IP addresses, ports, and translates sequence/acknowledgment numbers
by the configured deltas, then transmits straight out the MAC
(XDP_TX) — the segment never touches the host or the TCP pipeline.
Control-flagged segments atomically remove the map entry and are
redirected to the control plane, exactly as in Listing 1."""

import struct

from repro.xdp.asm import assemble
from repro.xdp.maps import BpfHashMap

KEY_FORMAT = struct.Struct("!IIHH")  # src_ip, dst_ip, sport, dport
VALUE_FORMAT = struct.Struct("!QIHHII")  # mac, ip, lport, rport, seqd, ackd


def splice_key(src_ip, dst_ip, sport, dport):
    return KEY_FORMAT.pack(src_ip, dst_ip, sport, dport)


class SpliceEntry:
    """One direction of a spliced connection pair."""

    __slots__ = ("remote_mac", "remote_ip", "local_port", "remote_port", "seq_delta", "ack_delta")

    def __init__(self, remote_mac, remote_ip, local_port, remote_port, seq_delta, ack_delta):
        self.remote_mac = remote_mac
        self.remote_ip = remote_ip
        self.local_port = local_port
        self.remote_port = remote_port
        self.seq_delta = seq_delta % (1 << 32)
        self.ack_delta = ack_delta % (1 << 32)

    def pack(self):
        return VALUE_FORMAT.pack(
            self.remote_mac,
            self.remote_ip,
            self.local_port,
            self.remote_port,
            self.seq_delta,
            self.ack_delta,
        )

    @classmethod
    def unpack(cls, data):
        mac, ip, lport, rport, seqd, ackd = VALUE_FORMAT.unpack(bytes(data))
        return cls(mac, ip, lport, rport, seqd, ackd)


SPLICE_FD = 3

#: Listing 1 as eBPF assembly. Wire layout without VLAN: Ethernet
#: 0-13, IPv4 14-33 (src 26, dst 30), TCP from 34 (sport 34, dport 36,
#: seq 38, ack 42, flags byte 47). The 4-tuple key ("!IIHH") is exactly
#: the contiguous wire bytes [26, 38), so building it is three aligned
#: word copies; same-size load/store pairs are endian-neutral. The
#: packet pointer lives in r6 because the verifier models helper calls
#: as clobbering r1-r5.
SPLICE_ASM = """
    ldxdw r2, [r1+0]        ; data
    ldxdw r3, [r1+8]        ; data_end
    mov r6, r2              ; packet pointer, survives helper calls
    mov r4, r6
    add r4, 48              ; Ethernet + IPv4 + TCP incl. flags byte
    jgt r4, r3, slow
    ldxh r5, [r6+12]
    jne r5, 0x0008, slow    ; not IPv4 (big-endian 0x0800)
    ldxb r5, [r6+23]
    jne r5, 6, slow         ; not TCP
    ; key = (src_ip, dst_ip, sport, dport) in wire order
    ldxw r5, [r6+26]
    stxw [r10-12], r5
    ldxw r5, [r6+30]
    stxw [r10-8], r5
    ldxw r5, [r6+34]
    stxw [r10-4], r5
    ; control-flagged segment (SYN|FIN|RST)?
    ldxb r5, [r6+47]
    and r5, 0x07
    jne r5, 0, control
    lddw r1, map:{fd}
    mov r2, r10
    sub r2, 12
    call 1                  ; splice table lookup
    jeq r0, 0, pass         ; not spliced: data plane handles it
    ; patch headers: eth.src <- eth.dst, eth.dst <- entry MAC
    ldxw r5, [r6+0]
    stxw [r6+6], r5
    ldxh r5, [r6+4]
    stxh [r6+10], r5
    ldxw r5, [r0+2]         ; MAC = low 6 bytes of the big-endian u64
    stxw [r6+0], r5
    ldxh r5, [r0+6]
    stxh [r6+4], r5
    ; ip.src <- ip.dst, ip.dst <- entry IP
    ldxw r5, [r6+30]
    stxw [r6+26], r5
    ldxw r5, [r0+8]
    stxw [r6+30], r5
    ; ports
    ldxh r5, [r0+12]
    stxh [r6+34], r5
    ldxh r5, [r0+14]
    stxh [r6+36], r5
    ; seq/ack translation, mod 2^32 (be32 is its own inverse)
    ldxw r5, [r6+38]
    be32 r5
    ldxw r4, [r0+16]
    be32 r4
    add32 r5, r4
    be32 r5
    stxw [r6+38], r5
    ldxw r5, [r6+42]
    be32 r5
    ldxw r4, [r0+20]
    be32 r4
    add32 r5, r4
    be32 r5
    stxw [r6+42], r5
    mov r0, 2               ; XDP_TX: straight back out the MAC
    exit
control:
    lddw r1, map:{fd}
    mov r2, r10
    sub r2, 12
    call 3                  ; atomically remove the entry
    jne r0, 0, pass         ; no entry: not ours
    mov r0, 3               ; XDP_REDIRECT: hand to the control plane
    exit
slow:
    mov r0, 3               ; XDP_REDIRECT: non-TCP to the control plane
    exit
pass:
    mov r0, 1               ; XDP_PASS
    exit
""".format(fd=SPLICE_FD)


def splice_asm_program(max_entries=4096):
    """(program, maps) pair ready for :class:`repro.xdp.XdpAdapter`."""
    table = BpfHashMap(KEY_FORMAT.size, VALUE_FORMAT.size, max_entries, name="splice_tbl")
    return assemble(SPLICE_ASM), {SPLICE_FD: table}
