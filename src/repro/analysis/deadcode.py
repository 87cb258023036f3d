"""Dead-code and dead-store lint for XDP programs.

Two diagnostics on top of the verifier's dataflow:

* **dead-insn** — instructions unreachable once branch refinement is
  taken into account. The verifier rejects *structurally* unreachable
  code, but an edge whose refinement would empty a register's range
  (``jeq r5, 7`` when r5 is proven ``[0, 3]``) can never be taken; code
  reachable only through such edges is dead.
* **dead-store** — stack stores never observed before ``exit``: no
  later load and no helper key/value buffer reads the bytes on any
  path. Packet and map-value stores are always observable (they outlive
  the program) and are never flagged.

Both are lint findings, not verification errors: dead code is safe,
just wasted FPC cycles on the data path.
"""

from repro.analysis.cfg import JUMP_BASES, insn_base
from repro.analysis.dataflow import SCALAR, STACK_PTR, STACK_SIZE, U64
from repro.analysis.verifier import (
    HELPER_ARG_COUNT,
    VerifierError,
    _Verifier,
    refine_scalar,
)
from repro.xdp.vm import HELPER_MAP_UPDATE

_SIZES = {"b": 1, "h": 2, "w": 4, "dw": 8}

_ALL_BYTES = (1 << STACK_SIZE) - 1


def _edge_feasible(state, insn, base, mode, taken):
    """Can this branch edge be taken under the entry state's facts?

    Only a scalar compared against an immediate is judged — by the
    verifier's own refinement, which yields no range exactly when no
    value goes this way; everything else is conservatively feasible.
    """
    reg = state.regs[insn.dst]
    if mode == "reg" or reg.kind != SCALAR:
        return True
    return refine_scalar(reg.val, base, insn.imm & U64, taken) is not None


def _stack_bytes(pointer, extra_off, size):
    """Bitmask of stack bytes touched, or None when not stack/unknown."""
    if pointer.kind != STACK_PTR or pointer.off is None or pointer.var is not None:
        return None
    off = pointer.off + extra_off
    lo = STACK_SIZE + off
    if lo < 0 or lo + size > STACK_SIZE:
        return None
    return ((1 << size) - 1) << lo


def _uses_and_kill(insn, state, maps):
    """(read mask, killed mask) of stack bytes for one instruction.

    Unknown pointer arguments conservatively read everything.
    """
    base = insn_base(insn)
    if base.startswith("ldx"):
        mask = _stack_bytes(state.regs[insn.src], insn.off, _SIZES[base[3:]])
        if mask is None and state.regs[insn.src].kind == STACK_PTR:
            return _ALL_BYTES, 0
        return (mask or 0), 0
    if base.startswith("stx") or base.startswith("st"):
        reg = insn.dst
        size = _SIZES[base[3:] if base.startswith("stx") else base[2:]]
        mask = _stack_bytes(state.regs[reg], insn.off, size)
        if mask is None:
            if state.regs[reg].kind == STACK_PTR:
                return _ALL_BYTES, 0  # unbounded stack store: assume read
            return 0, 0  # packet/map store: observable, reads nothing
        return 0, mask
    if base == "call":
        reads = 0
        bpf_map = None
        if maps is not None and state.regs[1].kind == SCALAR:
            bpf_map = maps.get(state.regs[1].const)
        args = HELPER_ARG_COUNT.get(insn.imm, 0)
        for reg, attr in ((2, "key_size"), (3, "value_size")):
            if reg > args or (reg == 3 and insn.imm != HELPER_MAP_UPDATE):
                continue
            pointer = state.regs[reg]
            if pointer.kind != STACK_PTR:
                continue
            # The helper reads the map's key/value size through the
            # buffer; without a known map, any length.
            mask = None
            if bpf_map is not None:
                mask = _stack_bytes(pointer, 0, getattr(bpf_map, attr))
            reads |= _ALL_BYTES if mask is None else mask
        return reads, 0
    return 0, 0


def lint_program(name, program, maps=None):
    """Findings for one program: (code, insn index, message) tuples."""
    findings = []
    # The verifier's own pass, with edges whose entry facts contradict
    # the branch condition contributing no state: what is left with no
    # state is dead.
    checker = _Verifier(program, maps)
    try:
        checker.structural_checks()
        states = checker.dataflow(_edge_feasible)
    except VerifierError:
        return []  # unverifiable programs are the verifier pass's report
    for index, state in enumerate(states):
        if state is None:
            findings.append(
                (
                    "dead-insn",
                    index,
                    "insn {} ({}) is unreachable under branch refinement".format(
                        index, program[index].op
                    ),
                )
            )

    # Backward stack-byte liveness. Programs are forward-only DAGs, so
    # descending index order is a reverse topological order.
    n = len(program)
    live_in = [0] * n
    for index in range(n - 1, -1, -1):
        state = states[index]
        if state is None:
            continue
        base = insn_base(program[index])
        live_out = 0
        if base == "exit":
            live_out = 0
        elif base == "ja":
            target = index + 1 + program[index].off
            live_out = live_in[target]
        elif base in JUMP_BASES:
            live_out = live_in[index + 1] | live_in[index + 1 + program[index].off]
        elif index + 1 < n:
            live_out = live_in[index + 1]
        reads, kill = _uses_and_kill(program[index], state, maps)
        live_in[index] = (live_out & ~kill) | reads
        if kill and not (kill & live_out):
            findings.append(
                (
                    "dead-store",
                    index,
                    "insn {} ({}) stores stack bytes never read before exit".format(
                        index, program[index].op
                    ),
                )
            )
    findings.sort(key=lambda item: item[1])
    return findings
