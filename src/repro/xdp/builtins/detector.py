"""In-NIC attack detector: per-source feature counters + threshold drops.

The survivability counterpart of the firewall builtin: instead of a
control-plane-curated blacklist, the program *itself* builds per-source
features (packets, bytes, pure-SYN count, RST count) in an LRU hash map
and drops at the NIC — before checksum verification, before connection
lookup, and critically before the control plane can allocate any
offload state (buffers, connection index, CONN_SLAB slot) for the flow.

Feature map (LRU, keyed by source IP in wire byte order)::

    struct features { u64 pkts; u64 bytes; u64 syns; u64 rsts; }

Threshold map (one-slot array, all u64; a zero disables that rule)::

    struct thresholds { u64 syn_limit; u64 rst_limit;
                        u64 pkt_floor; u64 min_bpp; }

Verdicts, in program order:

* pure SYN (SYN set, ACK clear) with the source's SYN count above
  ``syn_limit`` -> drop (SYN flood);
* RST with the source's RST count above ``rst_limit`` -> drop
  (RST/churn storm);
* TCP segment carrying none of SYN/ACK/RST -> drop unconditionally (no
  real TCP endpoint emits flag-less junk; this is the incast garbage
  profile and it otherwise triggers control-plane RST reflection);
* once a source has sent more than ``pkt_floor`` packets, an average
  L3 bytes/packet below ``min_bpp`` -> drop (runt flood).

Counting uses the IP total-length field rather than pointer arithmetic
so the program stays within the verifier's packet-bounds proof idiom.
The division in the bytes/packet rule sits behind an explicit
zero-compare (``jeq r6, 0``): a zero divisor faults the program.
"""

import struct

from repro.xdp.asm import assemble
from repro.xdp.maps import BpfArrayMap, BpfLruHashMap

FEATURES_FD = 1
THRESHOLDS_FD = 2

#: features value layout (little-endian u64s).
_FEATURES_FMT = "<QQQQ"
_THRESHOLDS_FMT = "<QQQQ"

DETECTOR_ASM = """
    ; r8 = data, r9 = data_end (callee-saved across helper calls).
    ldxdw r8, [r1+0]
    ldxdw r9, [r1+8]
    mov r4, r8
    add r4, 48              ; eth(14) + ipv4(20) + tcp through flags(14)
    jgt r4, r9, pass
    ldxh r5, [r8+12]
    jne r5, 0x0008, pass    ; EtherType IPv4 (wire 0x0800, LE load)
    ldxb r5, [r8+23]
    jne r5, 6, pass         ; IPv4 protocol must be TCP
    ldxb r7, [r8+47]        ; TCP flags byte, callee-saved
    ; Thresholds: one-slot array map, index 0.
    stw [r10-8], 0
    lddw r1, map:{thresholds}
    mov r2, r10
    sub r2, 8
    call 1
    jeq r0, 0, pass
    ; Copy to the stack: the next helper call clobbers r0.
    ldxdw r6, [r0+0]
    stxdw [r10-16], r6      ; syn_limit
    ldxdw r6, [r0+8]
    stxdw [r10-24], r6      ; rst_limit
    ldxdw r6, [r0+16]
    stxdw [r10-32], r6      ; pkt_floor
    ldxdw r6, [r0+24]
    stxdw [r10-40], r6      ; min_bpp
    ; Per-source feature slot, key = src IP in wire order.
    ldxw r5, [r8+26]
    stxw [r10-4], r5
    lddw r1, map:{features}
    mov r2, r10
    sub r2, 4
    call 1
    jne r0, 0, found
    ; First sighting: insert a zeroed record, then re-look it up (the
    ; LRU map evicts rather than fail, so the re-lookup always hits).
    stdw [r10-72], 0
    stdw [r10-64], 0
    stdw [r10-56], 0
    stdw [r10-48], 0
    lddw r1, map:{features}
    mov r2, r10
    sub r2, 4
    mov r3, r10
    sub r3, 72
    call 2
    lddw r1, map:{features}
    mov r2, r10
    sub r2, 4
    call 1
    jeq r0, 0, pass
found:
    ; pkts += 1 (keep the new count in r6 for the bytes/pkt rule).
    ldxdw r6, [r0+0]
    add r6, 1
    stxdw [r0+0], r6
    ; bytes += IP total length (offset 16, big-endian).
    ldxh r5, [r8+16]
    be16 r5
    ldxdw r4, [r0+8]
    add r4, r5
    stxdw [r0+8], r4
    ; Pure SYN?
    mov r5, r7
    and r5, 0x12            ; SYN|ACK
    jne r5, 0x02, not_syn
    ldxdw r5, [r0+16]
    add r5, 1
    stxdw [r0+16], r5
    ldxdw r3, [r10-16]      ; syn_limit (0 = disabled)
    jeq r3, 0, pass
    jgt r5, r3, drop
    ja pass
not_syn:
    mov r5, r7
    and r5, 0x04            ; RST
    jeq r5, 0, not_rst
    ldxdw r5, [r0+24]
    add r5, 1
    stxdw [r0+24], r5
    ldxdw r3, [r10-24]      ; rst_limit (0 = disabled)
    jeq r3, 0, pass
    jgt r5, r3, drop
    ja pass
not_rst:
    ; Protocol validity: a TCP segment with none of SYN/ACK/RST set is
    ; junk no real endpoint emits — drop before it reaches the slow
    ; path's RST reflection.
    mov r5, r7
    and r5, 0x16            ; SYN|RST|ACK
    jeq r5, 0, drop
    ; Runt-flood rule: enough packets seen and avg bytes/pkt too small.
    ldxdw r3, [r10-32]      ; pkt_floor (0 = disabled)
    jeq r3, 0, pass
    jgt r6, r3, bpp_check
    ja pass
bpp_check:
    ldxdw r3, [r10-40]      ; min_bpp (0 = disabled)
    jeq r3, 0, pass
    jeq r6, 0, pass         ; a zero divisor would fault
    mov r5, r4
    div r5, r6              ; avg L3 bytes per packet
    jlt r5, r3, drop
    ja pass
drop:
    mov r0, 0               ; XDP_DROP
    exit
pass:
    mov r0, 1               ; XDP_PASS
    exit
""".format(features=FEATURES_FD, thresholds=THRESHOLDS_FD)


def detector_asm_program(max_sources=1024):
    """(program, maps) pair ready for :class:`repro.xdp.XdpAdapter`.

    Thresholds start zeroed: only the protocol-validity rule is active
    until the control plane programs a policy via :func:`set_thresholds`.
    """
    features = BpfLruHashMap(4, 32, max_sources, name="flow_features")
    thresholds = BpfArrayMap(32, 1, name="detector_thresholds")
    program = assemble(DETECTOR_ASM)
    return program, {FEATURES_FD: features, THRESHOLDS_FD: thresholds}


def set_thresholds(maps, syn_limit=0, rst_limit=0, pkt_floor=0, min_bpp=0):
    """Program the detector's policy (a zero disables that rule)."""
    maps[THRESHOLDS_FD].update(
        struct.pack("<I", 0),
        struct.pack(_THRESHOLDS_FMT, syn_limit, rst_limit, pkt_floor, min_bpp),
    )


def read_features(maps, src_ip):
    """(pkts, bytes, syns, rsts) for a source IP, or None if unseen."""
    value = maps[FEATURES_FD].lookup(struct.pack("!I", src_ip))
    if value is None:
        return None
    return struct.unpack(_FEATURES_FMT, bytes(value))


def decay_features(maps):
    """Halve every source's counters: called periodically this turns
    the cumulative counts into (coarse) rates, so a source that stops
    attacking decays back under threshold instead of staying banned."""
    features = maps[FEATURES_FD]
    for key in features.keys():
        value = features.lookup(key)
        if value is None:
            continue
        pkts, nbytes, syns, rsts = struct.unpack(_FEATURES_FMT, bytes(value))
        struct.pack_into(
            _FEATURES_FMT, value, 0, pkts // 2, nbytes // 2, syns // 2, rsts // 2
        )
