"""Control flow over XDP VM programs.

A program is a list of :class:`repro.xdp.vm.Insn`; the verifier's
structural pass walks per-instruction successors, and the dead-code
lint classifies instructions by the same mnemonic families. The successor
function is purely structural: it does not judge whether targets are
sane (the verifier's pre-pass does).
"""

JUMP_BASES = frozenset(
    ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jsge", "jslt", "jsle")
)


def insn_base(insn):
    """Mnemonic family of an instruction (``jeq.imm`` -> ``jeq``)."""
    return insn.op.partition(".")[0]


def insn_successors(program, index):
    """Indices control may flow to after ``program[index]``.

    Fallthrough comes first. Successors outside ``[0, len(program))``
    are included as-is so callers can detect fall-off-the-end targets.
    """
    insn = program[index]
    base = insn_base(insn)
    if base == "exit":
        return []
    if base == "ja":
        return [index + 1 + insn.off]
    if base in JUMP_BASES:
        return [index + 1, index + 1 + insn.off]
    return [index + 1]
