"""Differential testing: random verified programs, interpreter vs JIT
vs the verifier's abstract states.

Hypothesis generates structured random eBPF programs (bounds-checked
packet loads, stack traffic, ALU soup, forward branches, guarded
division, packet-pointer arithmetic with guarded variable-offset loads,
optional hash-map lookup/writeback), assembles and verifies them, then
runs the same packets through :class:`BpfVm` and the proof-carrying
JIT. Return codes, executed-instruction counts, packet mutations, map
contents, and fault behavior must be identical — the JIT's whole claim
is bit-level equivalence with checks removed. The same generator, with
a register dump in front of every statement, checks the proof itself:
the certified state at each dump must admit what the interpreter had in
its registers there.
"""

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.analysis.dataflow import PKT_PTR, SCALAR
from repro.analysis.verifier import VerifierError, verify_states
from repro.xdp.asm import assemble
from repro.xdp.jit import compile_program
from repro.xdp.maps import BpfHashMap
from repro.xdp.vm import MASK64, PACKET_BASE, BpfVm, VmFault

MAP_FD = 1

_ALU_OPS = ("add", "sub", "mul", "and", "or", "xor", "lsh", "rsh", "arsh", "mov")
_JUMP_OPS = ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jslt")
_SIZES = (("b", 1), ("h", 2), ("w", 4), ("dw", 8))

# Registers the generated body may freely clobber. r6/r7 hold
# data/data_end; r8 is the bounds-check scratch; r9 is a packet pointer
# only the "ptr" statements move.
_BODY_REGS = (0, 2, 3, 4, 5)

# A dump stores these registers, then a marker, in its own slot of the
# packet behind the 16 header bytes. Body statement i owns slots 3i
# (in front of it) and 3i + 1, 3i + 2 (the two arms of a "guard").
_DUMPED = _BODY_REGS + (9,)
_DUMP_BYTES = 8 * len(_DUMPED) + 8
_MARK = 0x5EE
_MAX_BODY = 12
_DUMP_AREA = _DUMP_BYTES * (3 * _MAX_BODY + 1)


def _dump(slot):
    base = 16 + _DUMP_BYTES * slot
    lines = ["stxdw [r6+{}], r{}".format(base + 8 * n, reg) for n, reg in enumerate(_DUMPED)]
    return lines + ["stdw [r6+{}], {}".format(base + 8 * len(_DUMPED), _MARK)]


def _immediate(inits):
    """Mostly values a register is likely to sit next to — the initial
    constants and small numbers, each with its neighbours — so that the
    boundary of a compare or a mask is actually visited."""
    near = [v + d for v in tuple(inits) + (0, 8, 16) for d in (-1, 0, 1)]
    return st.one_of(st.sampled_from(near), st.integers(-(2**31), 2**31 - 1))


@st.composite
def statement(draw, index, n_body, inits, head, dumps):
    kind = draw(
        st.sampled_from(
            ["alu", "alu", "alu", "pktload", "stackstore", "stackload", "jump", "guard", "div", "ptr"]
        )
    )
    dst = draw(st.sampled_from(_BODY_REGS))
    if kind == "guard":
        # A header byte compared against a number next to the one the
        # certified-states packet holds there, with each edge's
        # refinement observable before the arms join.
        at = draw(st.integers(0, 15))
        lines = [
            "ldxb r{}, [r6+{}]".format(dst, at),
            "{} r{}, {}, t{}".format(
                draw(st.sampled_from(_JUMP_OPS)), dst, head[at] + draw(st.integers(-1, 1)), index
            ),
        ]
        lines += _dump(3 * index + 1) if dumps else []
        lines += ["ja e{}".format(index), "t{}:".format(index)]
        lines += _dump(3 * index + 2) if dumps else []
        return lines + ["e{}:".format(index)]
    if kind == "alu":
        op = draw(st.sampled_from(_ALU_OPS + ("neg",)))
        wide = draw(st.booleans())
        suffix = "" if wide else "32"
        if op == "neg":
            return ["neg{} r{}".format(suffix, dst)]
        if op in ("lsh", "rsh", "arsh") and draw(st.booleans()):
            return ["{}{} r{}, {}".format(op, suffix, dst, draw(st.integers(0, 31)))]
        if draw(st.booleans()):
            src = draw(st.sampled_from(_BODY_REGS))
            return ["{}{} r{}, r{}".format(op, suffix, dst, src)]
        return ["{}{} r{}, {}".format(op, suffix, dst, draw(_immediate(inits)))]
    if kind == "pktload":
        size, nbytes = draw(st.sampled_from(_SIZES))
        off = draw(st.integers(0, 16 - nbytes))
        return ["ldx{} r{}, [r6+{}]".format(size, dst, off)]
    if kind == "stackstore":
        size, nbytes = draw(st.sampled_from(_SIZES))
        off = draw(st.sampled_from([o for o in (8, 16) if o >= nbytes]))
        return ["stx{} [r10-{}], r{}".format(size, off, dst)]
    if kind == "stackload":
        # The prologue initializes [r10-8, r10) and [r10-16, r10-8).
        size, nbytes = draw(st.sampled_from(_SIZES))
        off = draw(st.sampled_from([o for o in (8, 16) if o >= nbytes]))
        return ["ldx{} r{}, [r10-{}]".format(size, dst, off)]
    if kind == "jump":
        op = draw(st.sampled_from(_JUMP_OPS))
        target = draw(st.integers(index + 1, n_body))
        label = "b{}".format(target) if target < n_body else "epi"
        if draw(st.booleans()):
            src = draw(st.sampled_from(_BODY_REGS))
            return ["{} r{}, r{}, {}".format(op, dst, src, label)]
        return ["{} r{}, {}, {}".format(op, dst, draw(_immediate(inits)), label)]
    if kind == "ptr":
        form = draw(st.sampled_from(["reset", "const", "scalar", "index", "load"]))
        if form == "reset":
            return ["mov r9, r6"]
        if form == "const":
            return ["{} r9, {}".format(draw(st.sampled_from(["add", "sub"])), draw(st.integers(1, 8)))]
        if form == "scalar":  # usually unbounded: the pointer keeps only its region
            return ["add r9, r{}".format(dst)]
        if form == "index":  # a bounded variable part
            return ["and r{}, {}".format(dst, draw(st.integers(1, 15))), "add r9, r{}".format(dst)]
        size, nbytes = draw(st.sampled_from(_SIZES))
        return [
            "mov r8, r9",
            "add r8, {}".format(nbytes),
            "jgt r8, r7, epi",
            "ldx{} r{}, [r9+0]".format(size, dst),
        ]
    # div/mod by a body register: the divisor range usually includes
    # zero, so the guard is retained and zero divisors must fault
    # identically on both backends.
    op = draw(st.sampled_from(["div", "mod", "div32", "mod32"]))
    src = draw(st.sampled_from(_BODY_REGS))
    return ["{} r{}, r{}".format(op, dst, src)]


@st.composite
def program_text(draw, dumps=False):
    n_body = draw(st.integers(1, _MAX_BODY))
    inits = [
        draw(st.one_of(st.integers(0, 16), st.integers(0, 2**32 - 1))) for _ in range(len(_BODY_REGS))
    ]
    use_map = draw(st.booleans())
    head = draw(st.binary(min_size=16, max_size=16))
    lines = [
        "ldxdw r6, [r1+0]",
        "ldxdw r7, [r1+8]",
        "mov r8, r6",
        "add r8, {}".format(16 + _DUMP_AREA if dumps else 16),
        "jgt r8, r7, out",
        "mov r9, r6",
    ]
    for reg, value in zip(_BODY_REGS, inits):
        lines.append("mov r{}, {}".format(reg, value))
    lines.append("stxdw [r10-8], r0")
    lines.append("stxdw [r10-16], r2")
    for i in range(n_body):
        lines.append("b{}:".format(i))
        if dumps:
            lines.extend(_dump(3 * i))
        lines.extend(draw(statement(i, n_body, inits, head, dumps)))
    lines.append("epi:")
    if dumps:
        lines.extend(_dump(3 * n_body))
    if use_map:
        # Lookup with the low word of the stack slot as key; increment
        # the first value byte on a hit. r1-r5 are verifier-clobbered
        # by the call, so re-init what the epilogue needs.
        lines += [
            "lddw r1, map:{}".format(MAP_FD),
            "mov r2, r10",
            "sub r2, 8",
            "call 1",
            "jeq r0, 0, miss",
            "ldxb r3, [r0+0]",
            "add r3, 1",
            "stxb [r0+0], r3",
            "miss:",
        ]
    lines += ["mov r0, 7", "exit", "out:", "mov r0, 3", "exit"]
    # The map key is the prologue-stored r0 init value's low 4 bytes;
    # seed a hit for roughly half the programs.
    seed_hit = draw(st.booleans())
    return "\n".join(lines), inits[0], use_map, seed_hit, head


def _build(key_word, use_map, seed_hit):
    maps = {}
    if use_map:
        table = BpfHashMap(4, 8, 16, name="parity")
        if seed_hit:
            table.update(struct.pack("<I", key_word & 0xFFFFFFFF), b"\x41" + b"\x00" * 7)
        table.update(struct.pack("<I", 0xDEADBEEF), b"\x99" + b"\x00" * 7)
        maps[MAP_FD] = table
    return maps


def _run(backend, packet):
    try:
        result, executed = backend.run(packet)
        return ("ok", result, executed, bytes(packet))
    except VmFault as fault:
        return ("fault", str(fault), bytes(packet))


def _map_dump(maps):
    if MAP_FD not in maps:
        return None
    return sorted(maps[MAP_FD].items()) if hasattr(maps[MAP_FD], "items") else None


@settings(max_examples=60, deadline=None)
@given(data=program_text(), packet=st.binary(min_size=0, max_size=48))
def test_random_verified_programs_agree(data, packet):
    text, key_word, use_map, seed_hit, _ = data
    program = assemble(text)
    maps_vm = _build(key_word, use_map, seed_hit)
    maps_jit = _build(key_word, use_map, seed_hit)
    try:
        vm = BpfVm(program, maps_vm)
        jit = compile_program(program, maps_jit)
    except VerifierError:
        hypothesis.assume(False)
        return

    out_vm = _run(vm, bytearray(packet))
    out_jit = _run(jit, bytearray(packet))
    assert out_jit == out_vm

    if use_map:
        dump = lambda m: sorted(
            (bytes(k), bytes(v)) for k, v in _iter_map(m[MAP_FD])
        )
        assert dump(maps_jit) == dump(maps_vm)


def _iter_map(table):
    # BpfHashMap internal storage: fall back over plausible attribute
    # names so the parity check survives representation changes.
    for attr in ("entries", "table", "_entries", "_table", "store", "data"):
        storage = getattr(table, attr, None)
        if isinstance(storage, dict):
            return storage.items()
    raise AttributeError("cannot introspect BpfHashMap storage")


def _admits(reg, concrete):
    """Does the abstract register value admit this concrete one? No
    claim is made about an uninitialized register or a pointer whose
    offset is unknown."""
    if reg.kind == SCALAR:
        return reg.val.contains(concrete)
    if reg.kind == PKT_PTR and reg.off is not None:
        # data + off + var, as the machine adds: modulo 2^64.
        variable = (concrete - PACKET_BASE - reg.off) & MASK64
        return variable == 0 if reg.var is None else reg.var.contains(variable)
    return True


@settings(max_examples=200, deadline=None)
@given(data=program_text(dumps=True))
def test_certified_states_admit_the_interpreter_run(data):
    """The JIT's trust base against its oracle: wherever the interpreter
    passed a register dump, the verifier's state at that instruction
    must admit the dumped registers (every refinement and ALU transfer
    on the path there is in that claim)."""
    text, key_word, use_map, seed_hit, head = data
    program = assemble(text)
    maps = _build(key_word, use_map, seed_hit)
    try:
        states = verify_states(program, maps)
    except VerifierError:
        hypothesis.assume(False)
        return

    packet = bytearray(head + bytes(_DUMP_AREA))
    _run(BpfVm(program, maps), packet)  # a fault keeps the dumps before it
    checked = 0
    for index, insn in enumerate(program):
        if insn.op != "stdw.mem" or insn.imm != _MARK:
            continue
        if int.from_bytes(packet[insn.off : insn.off + 8], "little") != _MARK:
            continue  # this run jumped over the dump
        state = states[index]
        assert state.pkt_valid <= len(packet)
        base = insn.off - 8 * len(_DUMPED)
        for n, reg in enumerate(_DUMPED):
            concrete = int.from_bytes(packet[base + 8 * n : base + 8 * n + 8], "little")
            assert _admits(state.regs[reg], concrete), (index, reg, state.regs[reg], concrete)
        checked += 1
    assert checked  # b0's dump is on every path past the prologue
