"""VLAN stripping on ingress (Table 2's 'XDP (vlan-strip)' row)."""

from repro.xdp.asm import assemble

#: The VM rewrites packets in place and cannot shrink them, so this
#: performs the in-place half of the strip: tagged frames get their
#: 802.1Q priority (PCP) cleared; the tag itself stays. TPID 0x8100
#: sits big-endian at offset 12; the TCI's first byte carries PCP in its
#: top 3 bits.
VLAN_ASM = """
    ldxdw r2, [r1+0]        ; data
    ldxdw r3, [r1+8]        ; data_end
    mov r4, r2
    add r4, 18              ; Ethernet + 802.1Q tag
    jgt r4, r3, pass
    ldxh r5, [r2+12]
    jne r5, 0x0081, pass    ; little-endian load of big-endian 0x8100
    ldxb r5, [r2+14]
    and r5, 0x1f            ; clear PCP, keep DEI + VID high bits
    stxb [r2+14], r5
pass:
    mov r0, 1               ; XDP_PASS
    exit
"""


def vlan_asm_program():
    """(program, maps) pair ready for :class:`repro.xdp.XdpAdapter`."""
    return assemble(VLAN_ASM), {}
