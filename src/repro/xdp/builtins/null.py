"""The null XDP program: passes every packet (Table 2's overhead probe)."""

from repro.xdp.asm import assemble

NULL_ASM = """
    mov r0, 1
    exit
"""


def null_asm_program():
    return assemble(NULL_ASM), {}
