"""Programmable flow classification (paper §2.1's feature list).

Counts packets and L3 bytes per destination port class in a BPF array
map the control plane reads."""

from repro.xdp.asm import assemble
from repro.xdp.maps import BpfArrayMap

COUNTERS_FD = 2
N_CLASSES = 16


#: Slot ``dport % 16`` holds ``struct { u64 packets; u64 bytes; }``
#: (little-endian). Bytes are the IP total-length field (offset 16,
#: big-endian), the detector's idiom, so the program stays within the
#: verifier's packet-bounds proof; it is read into callee-saved r7
#: because the helper call clobbers the packet pointer.
CLASSIFIER_ASM = """
    ldxdw r2, [r1+0]
    ldxdw r3, [r1+8]
    mov r4, r2
    add r4, 38              ; eth(14) + ip(20) + tcp ports(4)
    jgt r4, r3, pass
    ldxh r5, [r2+12]
    jne r5, 0x0008, pass
    ; dport at offset 36, big-endian on the wire.
    ldxh r5, [r2+36]
    be16 r5
    and r5, 15
    stxw [r10-4], r5        ; array key (little-endian u32)
    ldxh r7, [r2+16]        ; IP total length
    be16 r7
    lddw r1, map:{fd}
    mov r2, r10
    sub r2, 4
    call 1
    jeq r0, 0, pass
    ; packets += 1
    ldxdw r6, [r0+0]
    add r6, 1
    stxdw [r0+0], r6
    ; bytes += IP total length
    ldxdw r4, [r0+8]
    add r4, r7
    stxdw [r0+8], r4
pass:
    mov r0, 1
    exit
""".format(fd=COUNTERS_FD)


def classifier_asm_program():
    counters = BpfArrayMap(16, N_CLASSES, name="flow_counters")
    return assemble(CLASSIFIER_ASM), {COUNTERS_FD: counters}

