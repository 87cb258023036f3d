"""A JIT for verified XDP programs.

A program that passes :func:`repro.analysis.verifier.verify` is
translated once into one specialized Python closure: registers are
local variables, each instruction is a statement, and the per-packet
mnemonic dispatch of :class:`BpfVm` is gone. Nothing else is: every
load and store goes through the same :class:`_Memory` resolver, every
register divisor keeps its zero test and the map helpers are the
interpreter's (:func:`repro.xdp.vm.call_helper`).

Semantics are bit-identical to :class:`BpfVm`:

* same virtual address layout (ctx/packet/stack/map values), same
  little-endian loads and stores, same masking discipline per ALU op,
  same :class:`VmFault` messages;
* division checks the *unmasked 64-bit* divisor, exactly like the
  interpreter (even for 32-bit division);
* ``run`` returns the same ``(r0, instructions executed)`` pair with
  the same count — the generated code charges each straight-line block
  at entry, so the adapter's cycle accounting is unchanged.

There is no instruction-budget check: the verifier's structural pass
proves the program is a DAG, so one packet executes at most
``len(program)`` (≤ 4096) instructions, far under the budget.

Control flow: verified programs are forward-only DAGs, so the
generated source lays blocks out in address order behind a skip
variable ``_s`` — a taken branch sets ``_s`` to the target index and
intervening blocks fall through without executing.
"""

import struct

from repro.analysis.verifier import verify
from repro.xdp.vm import (
    CTX_BASE,
    MASK32,
    MASK64,
    PACKET_BASE,
    STACK_SIZE,
    STACK_TOP,
    VmFault,
    _SIZES,
    _Memory,
    call_helper,
)

_CTX_PACK = struct.Struct("<QQ").pack_into

_UNSIGNED_JUMPS = {
    "jeq": "==",
    "jne": "!=",
    "jgt": ">",
    "jge": ">=",
    "jlt": "<",
    "jle": "<=",
}

_SIGNED_JUMPS = {"jsgt": ">", "jsge": ">=", "jslt": "<", "jsle": "<="}

_SIMPLE_ALU = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}


def _sgn64(value):
    return value - (1 << 64) if value >= 1 << 63 else value


def _sgn32(value):
    value &= MASK32
    return value - (1 << 32) if value >= 1 << 31 else value


def _bswap(value, nbytes):
    # Same code path as the interpreter's be/le handling.
    return int.from_bytes((value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little"), "big")


class _Codegen:
    def __init__(self, program):
        self.program = program

    def _rhs(self, insn, mode, mask=MASK64):
        return "r{}".format(insn.src) if mode == "reg" else repr(insn.imm & mask)

    def _addr(self, reg, insn):
        return "(r{} + {}) & {}".format(reg, insn.off, MASK64)

    # -- per-instruction ---------------------------------------------------

    def emit(self, index, insn):
        """Python statements for ``program[index]`` (VM-dispatch order)."""
        op = insn.op
        if op == "exit":
            return ["return r0, _n"]
        if op == "call":
            return ["r0 = _call(_maps, {}, r1, r2, r3, _mem, _vregs)".format(insn.imm)]
        if op == "ja":
            return ["_s = {}".format(index + 1 + insn.off)]
        base, _, mode = op.partition(".")
        target = index + 1 + insn.off
        if base in _UNSIGNED_JUMPS:
            return [
                "if r{} {} {}: _s = {}".format(
                    insn.dst, _UNSIGNED_JUMPS[base], self._rhs(insn, mode), target
                )
            ]
        if base == "jset":
            return ["if (r{} & {}) != 0: _s = {}".format(insn.dst, self._rhs(insn, mode), target)]
        if base in _SIGNED_JUMPS:
            rhs = (
                "_sgn64(r{})".format(insn.src)
                if mode == "reg"
                else repr(_sgn64(insn.imm & MASK64))
            )
            return ["if _sgn64(r{}) {} {}: _s = {}".format(insn.dst, _SIGNED_JUMPS[base], rhs, target)]
        if base in ("mov", "mov32"):
            if mode == "reg":
                src = "r{}".format(insn.src)
                expr = "{} & {}".format(src, MASK32) if base == "mov32" else src
            else:
                expr = repr(insn.imm & (MASK32 if base == "mov32" else MASK64))
            return ["r{} = {}".format(insn.dst, expr)]
        if base == "lddw":
            return ["r{} = {}".format(insn.dst, insn.imm & MASK64)]
        alu32 = base.endswith("32")
        alu_base = base[:-2] if alu32 else base
        mask = MASK32 if alu32 else MASK64
        dst = "r{}".format(insn.dst)
        lhs = "({} & {})".format(dst, MASK32) if alu32 else dst
        if alu_base in _SIMPLE_ALU:
            rhs = self._rhs(insn, mode, mask)
            if mode == "reg" and alu32:
                rhs = "(r{} & {})".format(insn.src, MASK32)
            return ["{} = ({} {} {}) & {}".format(dst, lhs, _SIMPLE_ALU[alu_base], rhs, mask)]
        if alu_base in ("lsh", "rsh"):
            # The interpreter masks the shift count to 6 bits for both
            # widths (its lambda is shared); replicate, don't "fix".
            shift = (
                "(r{} & 63)".format(insn.src) if mode == "reg" else repr(insn.imm & MASK64 & 63)
            )
            sym = "<<" if alu_base == "lsh" else ">>"
            return ["{} = ({} {} {}) & {}".format(dst, lhs, sym, shift, mask)]
        if alu_base in ("div", "mod"):
            rhs = self._rhs(insn, mode)  # unmasked 64-bit, like the VM
            fault = "raise VmFault('division by zero')"
            sym = "//" if alu_base == "div" else "%"
            divide = "{} = ({} {} {}) & {}".format(dst, lhs, sym, rhs, mask)
            if mode == "reg":
                return ["if {} == 0: {}".format(rhs, fault), divide]
            return [divide if insn.imm & MASK64 else fault]
        if alu_base == "neg":
            return ["{} = (-{}) & {}".format(dst, dst, mask)]
        if alu_base == "arsh":
            bits = 32 if alu32 else 64
            shift = (
                "(r{} & {})".format(insn.src, bits - 1)
                if mode == "reg"
                else repr(insn.imm & (bits - 1))
            )
            sgn = "_sgn32" if alu32 else "_sgn64"
            return ["{} = ({}({}) >> {}) & {}".format(dst, sgn, dst, shift, mask)]
        if base[:2] in ("be", "le") and base[2:].isdigit():
            width = int(base[2:])
            if base.startswith("le"):
                return ["{} = {} & {}".format(dst, dst, (1 << width) - 1)]
            return ["{} = _bswap({}, {})".format(dst, dst, width // 8)]
        if base.startswith("ldx"):
            addr = self._addr(insn.src, insn)
            return ["{} = _mem.load({}, {})".format(dst, addr, _SIZES[base[3:]])]
        if base.startswith("st"):
            # stx stores a register, st an immediate; store() masks to size.
            if base.startswith("stx"):
                size, value = _SIZES[base[3:]], "r{}".format(insn.src)
            else:
                size, value = _SIZES[base[2:]], repr(insn.imm)
            return ["_mem.store({}, {}, {})".format(self._addr(insn.dst, insn), size, value)]
        # The verifier admits unknown ALU mnemonics as opaque scalars;
        # the interpreter faults when one executes. So do we.
        return ["raise VmFault({!r})".format("unknown instruction {!r}".format(op))]

    # -- whole program -----------------------------------------------------

    def block_starts(self):
        starts = {0}
        n = len(self.program)
        for index, insn in enumerate(self.program):
            base = insn.op.partition(".")[0]
            if base == "exit" or base.startswith("j"):
                if base != "exit":
                    starts.add(index + 1 + insn.off)
                if index + 1 < n:
                    starts.add(index + 1)
        return sorted(start for start in starts if 0 <= start < n)

    def generate(self):
        lines = [
            "def _jit_run(_pkt):",
            "    _mem = _Memory()",
            "    _stk = bytearray({})".format(STACK_SIZE),
            "    _ctx = bytearray(16)",
            "    _ctxpack(_ctx, 0, {}, {} + len(_pkt))".format(PACKET_BASE, PACKET_BASE),
            "    _mem.add_region({}, _ctx)".format(CTX_BASE),
            "    _mem.add_region({}, _pkt)".format(PACKET_BASE),
            "    _mem.add_region({}, _stk)".format(STACK_TOP - STACK_SIZE),
            "    _vregs = {}",
            "    r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = 0",
            "    r1 = {}".format(CTX_BASE),
            "    r10 = {}".format(STACK_TOP),
            "    _n = 0",
            "    _s = -1",
        ]
        starts = self.block_starts()
        for which, start in enumerate(starts):
            end = starts[which + 1] if which + 1 < len(starts) else len(self.program)
            lines.append("    if _s < 0 or _s == {}:".format(start))
            lines.append("        _s = -1")
            lines.append("        _n += {}".format(end - start))
            for index in range(start, end):
                for stmt in self.emit(index, self.program[index]):
                    lines.append("        " + stmt)
        # Unreachable for verified programs: every path returns at exit.
        lines.append("    raise VmFault('program counter out of range: {}'.format(_s))")
        return "\n".join(lines) + "\n"


class JitProgram:
    """A compiled XDP program with the :class:`BpfVm` run interface."""

    def __init__(self, program, maps, fn, source):
        self.program = program
        self.maps = maps
        self.source = source
        self._fn = fn
        self.total_instructions = 0
        self.runs = 0

    def run(self, packet):
        """Execute over ``packet`` (bytearray, modified in place).

        Returns (r0 result, instructions executed)."""
        result, executed = self._fn(packet)
        self.total_instructions += executed
        self.runs += 1
        return result, executed


def compile_program(program, maps=None):
    """Verify ``program`` and translate it into a specialized closure;
    raises :class:`VerifierError` for a program the verifier refuses."""
    verify(program, maps)
    maps_dict = dict(maps or {})
    source = _Codegen(program).generate()
    namespace = {
        "_Memory": _Memory,
        "_ctxpack": _CTX_PACK,
        "_call": call_helper,
        "_maps": maps_dict,
        "_sgn32": _sgn32,
        "_sgn64": _sgn64,
        "_bswap": _bswap,
        "VmFault": VmFault,
    }
    exec(compile(source, "<xdp-jit>", "exec"), namespace)
    return JitProgram(program, maps_dict, namespace["_jit_run"], source)
