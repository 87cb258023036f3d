"""Instruction successors over XDP VM programs."""

from repro.analysis.cfg import insn_successors
from repro.xdp.vm import Insn


def test_insn_successors_shapes():
    program = [
        Insn("mov.imm", dst=0, imm=1),
        Insn("jeq.imm", dst=0, imm=0, off=1),
        Insn("ja", off=0),
        Insn("exit"),
    ]
    assert insn_successors(program, 0) == [1]
    assert insn_successors(program, 1) == [2, 3]  # fallthrough first
    assert insn_successors(program, 2) == [3]
    assert insn_successors(program, 3) == []
