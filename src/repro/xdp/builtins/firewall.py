"""Firewall module: drop packets from blacklisted source IPs.

The paper's running example for BPF maps (§3.3): "a firewall module may
store blacklisted IPs in a hash map and the control plane may add or
remove entries dynamically."
"""

import struct

from repro.xdp.asm import assemble
from repro.xdp.maps import BpfHashMap

BLACKLIST_FD = 1

#: Packet layout: Ethernet (14 B, no VLAN) then IPv4; source IP at
#: offset 26. The key is stored on the stack in network byte order to
#: match control-plane insertions.
FIREWALL_ASM = """
    ; r1 = ctx. Load packet bounds.
    ldxdw r2, [r1+0]        ; data
    ldxdw r3, [r1+8]        ; data_end
    mov r4, r2
    add r4, 34              ; need Ethernet + IPv4 headers
    jgt r4, r3, pass
    ; EtherType must be IPv4 (0x0800 big-endian at offset 12).
    ldxh r5, [r2+12]
    jne r5, 0x0008, pass    ; little-endian load of big-endian 0x0800
    ; Key = source IP (offset 26), kept in wire byte order.
    ldxw r5, [r2+26]
    stxw [r10-4], r5
    ; blacklist lookup(map fd, key ptr)
    lddw r1, map:{fd}
    mov r2, r10
    sub r2, 4
    call 1
    jeq r0, 0, pass
    mov r0, 0               ; XDP_DROP
    exit
pass:
    mov r0, 1               ; XDP_PASS
    exit
""".format(fd=BLACKLIST_FD)


def firewall_asm_program():
    """(program, maps) pair ready for :class:`repro.xdp.XdpAdapter`."""
    blacklist = BpfHashMap(4, 1, 1024, name="blacklist")
    program = assemble(FIREWALL_ASM)
    return program, {BLACKLIST_FD: blacklist}


def block_ip(blacklist, ip):
    """Control-plane helper: blacklist ``ip`` (unblock with map ``delete``)."""
    blacklist.update(struct.pack("!I", ip), b"\x01")
