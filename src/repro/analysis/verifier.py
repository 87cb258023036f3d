"""One-pass CFG verification of XDP VM programs.

The load-time guarantees the NFP offload needs (paper §3.3), made
path-sensitive:

* programs terminate — bounded length, no back-edges;
* every path reaches ``exit`` — no jump or fallthrough leaves the
  program, including targets one past the end;
* no unreachable code;
* registers are initialized on *every* path before use (facts meet at
  control-flow joins, so one-arm initialization does not survive);
* scalars and pointers are distinguished; loads and stores through
  context, stack, packet, and map-value pointers are bounds-checked
  against their region, packet accesses additionally against the
  bounds comparisons performed on that path;
* scalar values are tracked as unsigned 64-bit intervals
  (:mod:`repro.analysis.dataflow`), refined by conditional branches, so
  a packet offset *computed from loaded data* (e.g. a masked and
  shifted IHL byte) can still be proven in bounds: the variable offset
  folds into the packet pointer under a fresh id, and a single
  ``data_end`` comparison through any pointer sharing the id covers
  them all;
* map-value pointers must be null-checked before dereference;
* helper calls name known helpers, pass a compile-time map fd, pass
  initialized key/value buffers of the map's sizes, and clobber r1-r5.

Run-time checks in :mod:`repro.xdp.vm` remain as defense in depth.
"""

from repro.analysis.cfg import JUMP_BASES, insn_base, insn_successors
from repro.analysis.dataflow import (
    CTX_PTR,
    MAP_VALUE,
    MAP_VALUE_OR_NULL,
    PKT_END,
    PKT_PTR,
    PKT_VAR_BOUND,
    SCALAR,
    STACK_PTR,
    STACK_SIZE,
    U32,
    U64,
    AbsState,
    Interval,
    RegVal,
)
from repro.xdp.vm import HELPER_MAP_DELETE, HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE

MAX_PROGRAM_LEN = 4096
CTX_SIZE = 16

VALID_HELPERS = {HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE, HELPER_MAP_DELETE}

#: Registers each helper reads (r1 = map fd, r2 = key, ...).
HELPER_ARG_COUNT = {
    HELPER_MAP_LOOKUP: 2,
    HELPER_MAP_UPDATE: 3,
    HELPER_MAP_DELETE: 2,
}

_SIZES = {"b": 1, "h": 2, "w": 4, "dw": 8}

#: Interval transfer of each binary scalar ALU op.
_SCALAR_OPS = {
    "add": Interval.add,
    "sub": Interval.sub,
    "mul": Interval.mul,
    "div": Interval.udiv,
    "mod": Interval.umod,
    "and": Interval.and_,
    "or": Interval.or_,
    "xor": Interval.xor_,
    "lsh": Interval.lsh,
    "rsh": Interval.rsh,
    "arsh": Interval.arsh,
}

# (jump base, branch taken?) pairs proving pkt + N <= data_end, the
# packet pointer being the dst operand and data_end the src.
_PKT_PROOFS = {("jgt", False), ("jge", False), ("jle", True), ("jlt", True)}

#: A compare and the one it negates: ``jlt`` taken is ``jge`` not taken.
_NEGATED = {"jne": "jeq", "jlt": "jge", "jle": "jgt"}


def _to_signed(value):
    value &= U64
    return value - (1 << 64) if value >= 1 << 63 else value


class VerifierError(Exception):
    pass


def verify(program, maps=None):
    """Raise :class:`VerifierError` if the program is unacceptable."""
    _Verifier(program, maps).run()
    return True


def verify_states(program, maps=None):
    """Verify and return the per-instruction entry-state fixpoint.

    The returned list is the verifier's invariant: ``states[i]`` is a
    sound description of every concrete machine state that can reach
    instruction ``i`` (the soundness differential in
    ``tests/xdp/test_jit_parity.py`` holds it against interpreter runs).
    """
    return _Verifier(program, maps).run()


class _Verifier:
    def __init__(self, program, maps):
        self.program = program
        self.maps = maps

    def err(self, index, message):
        raise VerifierError("insn {}: {}".format(index, message))

    # -- driver ------------------------------------------------------------

    def run(self):
        self.structural_checks()
        states = self.dataflow()
        for index, state in enumerate(states):
            if state is None:
                self.err(index, "unreachable code")
        return states

    def structural_checks(self):
        """Range/termination checks that need no dataflow.

        Rejecting every control transfer that leaves ``[0, n)`` — which
        includes the fallthrough of the final instruction — makes
        "every path reaches exit" a structural corollary: the program
        is a DAG (no back-edges) whose only terminators are ``exit``.
        """
        program = self.program
        n = len(program)
        if not program:
            raise VerifierError("empty program")
        if n > MAX_PROGRAM_LEN:
            raise VerifierError("program too long ({} insns)".format(n))
        for index, insn in enumerate(program):
            base = insn_base(insn)
            if base == "exit":
                continue
            if base == "call" and insn.imm not in VALID_HELPERS:
                self.err(index, "unknown helper {}".format(insn.imm))
            if base == "ja" or base in JUMP_BASES:
                if insn.off < 0:
                    self.err(index, "backward jump (loops rejected)")
                target = index + 1 + insn.off
                if target >= n:
                    self.err(
                        index,
                        "jump target {} leaves the program: "
                        "control would fall off the end without reaching exit".format(target),
                    )
            for succ in insn_successors(program, index):
                if succ >= n:
                    self.err(
                        index,
                        "control falls off the end of the program: "
                        "this path never reaches exit",
                    )

    def dataflow(self, edge_feasible=None):
        """Per-instruction entry states, in one forward pass.

        :meth:`structural_checks` rejected every transfer that does not
        land strictly forward, so index order is a topological order:
        when the loop reaches an instruction, every predecessor has
        already met its out-state into it and the entry state is final.
        Each reachable instruction is transferred exactly once and the
        result is the exact fixpoint; an instruction no path reaches
        keeps ``None``. ``edge_feasible(state, insn, base, mode, taken)``
        may veto a branch edge (the dead-code lint's pruning).
        """
        program = self.program
        in_states = [None] * len(program)
        in_states[0] = AbsState()
        for index, insn in enumerate(program):
            state = in_states[index]
            if state is None:
                continue
            outs = self.transfer(index, state.copy())
            base, _, mode = insn.op.partition(".")
            if edge_feasible is not None and base in JUMP_BASES:
                # transfer returns the fallthrough edge first, taken second.
                outs = [
                    edge
                    for taken, edge in enumerate(outs)
                    if edge_feasible(state, insn, base, mode, bool(taken))
                ]
            for succ, out in outs:
                known = in_states[succ]
                in_states[succ] = out if known is None else known.meet(out)
        return in_states

    # -- transfer ----------------------------------------------------------

    def transfer(self, index, state):
        """Apply ``program[index]`` to ``state``.

        Returns ``(successor index, out state)`` pairs, one per CFG
        edge, with branch facts (packet bounds, null checks, scalar
        ranges) refined per edge.
        """
        insn = self.program[index]
        base, _, mode = insn.op.partition(".")
        if base == "exit":
            return []
        if base == "call":
            self.apply_call(index, insn, state)
            return [(index + 1, state)]
        if base == "ja":
            return [(index + 1 + insn.off, state)]
        if base in JUMP_BASES:
            self.check_read(index, state, insn.dst, "jump")
            if mode == "reg":
                self.check_read(index, state, insn.src, "jump")
            fall = self.refine_branch(state, insn, base, mode, taken=False)
            taken = self.refine_branch(state, insn, base, mode, taken=True)
            return [(index + 1, fall), (index + 1 + insn.off, taken)]
        if base in ("mov", "mov32"):
            self.apply_mov(index, insn, state, base, mode)
        elif base == "lddw":
            state.regs[insn.dst] = RegVal.scalar(insn.imm & U64)
        elif base.startswith("ldx"):
            self.apply_load(index, insn, state, _SIZES[base[3:]])
        elif base.startswith("stx"):
            self.check_read(index, state, insn.src, "store")
            self.apply_store(index, insn, state, _SIZES[base[3:]])
        elif base.startswith("st"):
            self.apply_store(index, insn, state, _SIZES[base[2:]])
        else:
            self.apply_alu(index, insn, state, base, mode)
        return [(index + 1, state)]

    def check_read(self, index, state, reg, what):
        if state.regs[reg].is_uninit:
            self.err(index, "{} reads uninitialized r{}".format(what, reg))

    def apply_mov(self, index, insn, state, base, mode):
        if mode == "reg":
            self.check_read(index, state, insn.src, "mov")
            value = state.regs[insn.src]
            if base == "mov32":
                # Truncation destroys pointer provenance.
                if value.kind == SCALAR:
                    value = RegVal.scalar_val(value.val.trunc32())
                else:
                    value = RegVal.scalar_val(Interval.bounded(U32))
            state.regs[insn.dst] = value
        else:
            imm = insn.imm & (U32 if base == "mov32" else U64)
            state.regs[insn.dst] = RegVal.scalar(imm)

    def apply_alu(self, index, insn, state, base, mode):
        alu32 = base.endswith("32")
        op = base[:-2] if alu32 else base
        unary = op in ("neg",) or base[:2] in ("be", "le")
        self.check_read(index, state, insn.dst, "ALU")
        if mode == "reg" and not unary:
            self.check_read(index, state, insn.src, "ALU")
        dst = state.regs[insn.dst]
        if unary:
            if base[:2] in ("be", "le") and base[2:].isdigit():
                width = int(base[2:])
                state.regs[insn.dst] = RegVal.scalar_val(Interval.bounded((1 << width) - 1))
            else:  # neg: an unknown scalar
                state.regs[insn.dst] = RegVal.scalar()
            return
        src = state.regs[insn.src] if mode == "reg" else RegVal.scalar(insn.imm & U64)
        if not alu32 and op in ("add", "sub") and dst.is_pointer and src.kind == SCALAR:
            state.regs[insn.dst] = self.pointer_math(op, dst, src, index)
        elif op in _SCALAR_OPS and dst.kind == SCALAR and src.kind == SCALAR:
            state.regs[insn.dst] = RegVal.scalar_val(_scalar_alu(op, dst.val, src.val, alu32))
        else:
            # 32-bit ops on pointers, pointer-pointer and scalar-pointer
            # math, and mnemonics the VM will fault on anyway, degrade to
            # an unknown scalar (provenance destroyed).
            state.regs[insn.dst] = RegVal.scalar()

    def pointer_math(self, op, pointer, scalar, index):
        """``pointer ± scalar``: constant deltas adjust the offset; a
        bounded unknown folds into a packet pointer's variable part
        under a fresh id (any prior bounds proof no longer applies).

        The fresh id is the folding instruction's index: programs are
        DAGs, so one instruction produces at most one variable part per
        packet and the id is both unique and deterministic.
        """
        delta = scalar.const
        if pointer.off is not None and delta is not None:
            delta = _to_signed(delta)
            off = pointer.off + delta if op == "add" else pointer.off - delta
            return RegVal(pointer.kind, off=off, fd=pointer.fd, vid=pointer.vid, var=pointer.var)
        if (
            op == "add"
            and pointer.kind == PKT_PTR
            and pointer.off is not None
            and scalar.val.hi <= PKT_VAR_BOUND
        ):
            var = scalar.val if pointer.var is None else pointer.var.add(scalar.val)
            if var.hi <= 4 * PKT_VAR_BOUND:
                return RegVal(PKT_PTR, off=pointer.off, vid=index, var=var)
        # Offset unknown from here on: the pointer keeps its region but
        # region_check will refuse any access through it.
        return RegVal(pointer.kind, off=None, fd=pointer.fd)

    # -- memory ------------------------------------------------------------

    def region_check(self, index, state, pointer, extra_off, size, writing):
        """Validate one access through ``pointer``; returns the region kind."""
        kind = pointer.kind
        if kind == MAP_VALUE_OR_NULL:
            self.err(index, "map value may be NULL: null-check the lookup result first")
        if not pointer.is_pointer:
            self.err(index, "memory access through non-pointer ({})".format(kind))
        if pointer.off is None:
            self.err(index, "pointer offset unknown after join; access cannot be bounded")
        var = pointer.var
        var_lo = var.lo if var is not None else 0
        var_hi = var.hi if var is not None else 0
        lo = pointer.off + var_lo + extra_off
        hi = pointer.off + var_hi + extra_off
        if kind == CTX_PTR:
            if writing:
                self.err(index, "store to read-only context")
            if var is not None:
                self.err(index, "context access requires a constant offset")
            if lo < 0 or lo + size > CTX_SIZE:
                self.err(index, "context access [{}, {}) out of bounds".format(lo, lo + size))
        elif kind == STACK_PTR:
            if var is not None:
                self.err(index, "variable stack offset cannot be tracked")
            off = lo
            if off < -STACK_SIZE or off + size > 0:
                self.err(index, "stack access [{}, {}) out of bounds".format(off, off + size))
            mask = ((1 << size) - 1) << (STACK_SIZE + off)
            if writing:
                state.stack_init |= mask
            elif state.stack_init & mask != mask:
                self.err(index, "read of uninitialized stack bytes at r10{:+d}".format(off))
        elif kind == PKT_PTR:
            if lo < 0:
                self.err(
                    index,
                    "packet access [{}, {}) outside verified bounds "
                    "(negative offset)".format(lo, lo + size),
                )
            if var is None:
                if lo + size > state.pkt_valid:
                    self.err(
                        index,
                        "packet access [{}, {}) outside verified bounds "
                        "({} bytes checked against data_end on this path)".format(
                            lo, lo + size, state.pkt_valid
                        ),
                    )
            else:
                # A data_end comparison through a pointer sharing this
                # vid proved base' + var <= data; the variable part
                # cancels, so base + k + size <= base' suffices.
                checked = state.pkt_checked.get(pointer.vid)
                if checked is not None and pointer.off + extra_off + size <= checked:
                    pass
                elif hi + size <= state.pkt_valid:
                    pass
                else:
                    self.err(
                        index,
                        "packet access [{}, {}) outside verified bounds "
                        "(variable offset in {}; {} bytes checked on this path)".format(
                            lo,
                            hi + size,
                            var,
                            state.pkt_valid if checked is None else checked,
                        ),
                    )
        elif kind == MAP_VALUE:
            if lo < 0:
                self.err(index, "negative map-value offset {}".format(lo))
            value_size = self.map_value_size(pointer.fd)
            if value_size is not None and hi + size > value_size:
                self.err(
                    index,
                    "map-value access [{}, {}) exceeds value size {}".format(
                        lo, hi + size, value_size
                    ),
                )
        else:  # PKT_END and anything else is never dereferenceable
            self.err(index, "memory access through {}".format(kind))
        return kind

    def map_value_size(self, fd):
        if self.maps is None or fd is None:
            return None
        bpf_map = self.maps.get(fd)
        return None if bpf_map is None else bpf_map.value_size

    def apply_load(self, index, insn, state, size):
        self.check_read(index, state, insn.src, "load")
        pointer = state.regs[insn.src]
        self.region_check(index, state, pointer, insn.off, size, writing=False)
        if size < 8:
            # A size-bounded load: the high bits are zero (this is what
            # lets ldxb-derived header offsets stay bounded through masks
            # and shifts).
            result = RegVal.scalar_val(Interval.bounded((1 << (8 * size)) - 1))
        else:
            result = RegVal.scalar()
        if pointer.kind == CTX_PTR and size == 8:
            off = pointer.off + insn.off
            if off == 0:
                result = RegVal.pointer(PKT_PTR, 0)
            elif off == 8:
                result = RegVal(PKT_END, off=0)
        state.regs[insn.dst] = result

    def apply_store(self, index, insn, state, size):
        self.check_read(index, state, insn.dst, "store")
        self.region_check(index, state, state.regs[insn.dst], insn.off, size, writing=True)

    # -- helpers -----------------------------------------------------------

    def apply_call(self, index, insn, state):
        helper = insn.imm
        for reg in range(1, 1 + HELPER_ARG_COUNT[helper]):
            self.check_read(index, state, reg, "helper")
        if self.maps is not None:
            fd_val = state.regs[1]
            if fd_val.kind != SCALAR or fd_val.const is None:
                self.err(index, "helper r1 must be a compile-time map fd")
            bpf_map = self.maps.get(fd_val.const)
            if bpf_map is None:
                self.err(index, "unknown map fd {}".format(fd_val.const))
            self.buffer_arg_check(index, state, 2, bpf_map.key_size, "key")
            if helper == HELPER_MAP_UPDATE:
                self.buffer_arg_check(index, state, 3, bpf_map.value_size, "value")
            fd = fd_val.const
        else:
            for reg in range(2, 1 + HELPER_ARG_COUNT[helper]):
                if not state.regs[reg].is_pointer:
                    self.err(index, "helper r{} must be a pointer".format(reg))
            fd = None
        if helper == HELPER_MAP_LOOKUP:
            state.regs[0] = RegVal(MAP_VALUE_OR_NULL, off=0, fd=fd)
        else:
            state.regs[0] = RegVal.scalar()
        for reg in range(1, 6):
            state.regs[reg] = RegVal.uninit()

    def buffer_arg_check(self, index, state, reg, size, what):
        """The helper reads ``size`` bytes through r``reg``."""
        pointer = state.regs[reg]
        if not pointer.is_pointer:
            self.err(index, "helper {} argument r{} must be a pointer".format(what, reg))
        self.region_check(index, state, pointer, 0, size, writing=False)

    # -- branch refinement -------------------------------------------------

    def refine_branch(self, state, insn, base, mode, taken):
        """Facts a conditional branch proves on one outgoing edge."""
        state = state.copy()
        dst = state.regs[insn.dst]
        if mode == "reg":
            src = state.regs[insn.src]
            if dst.kind == PKT_PTR and src.kind == PKT_END and dst.off is not None:
                if (base, taken) in _PKT_PROOFS:
                    self._record_pkt_proof(state, dst)
            const = src.const  # None unless src is a known scalar
        else:
            const = insn.imm & U64
            if const == 0 and base in ("jeq", "jne") and dst.kind == MAP_VALUE_OR_NULL:
                null_edge = (base == "jeq") == taken
                if null_edge:
                    state.regs[insn.dst] = RegVal.scalar(0)
                else:
                    state.regs[insn.dst] = RegVal.pointer(MAP_VALUE, dst.off or 0, fd=dst.fd)
        if dst.kind == SCALAR and const is not None:
            refined = refine_scalar(dst.val, base, const, taken)
            if refined is not None:  # None: an infeasible edge, left unrefined
                state.regs[insn.dst] = RegVal.scalar_val(refined)
        return state

    def _record_pkt_proof(self, state, pointer):
        """``pointer <= data_end`` holds on this edge."""
        if pointer.var is None:
            if pointer.off > state.pkt_valid:
                state.pkt_valid = pointer.off
            return
        # Variable pointer: record the constant part under the vid (the
        # variable part cancels against same-vid accesses), and bump the
        # unconditional bound by what the variable's minimum guarantees.
        current = state.pkt_checked.get(pointer.vid)
        if current is None or pointer.off > current:
            state.pkt_checked[pointer.vid] = pointer.off
        floor = pointer.off + pointer.var.lo
        if floor > state.pkt_valid:
            state.pkt_valid = floor


def _scalar_alu(op, a, b, alu32):
    """Interval transfer for one binary scalar ALU op."""
    if alu32:
        if op == "arsh":
            return Interval.bounded(U32)  # the sign bit is bit 31 here
        a = a.trunc32()
        if op not in ("div", "mod"):  # the VM divides by the full register
            b = b.trunc32()
    result = _SCALAR_OPS[op](a, b)
    return result.trunc32() if alu32 else result


def refine_scalar(val, base, const, taken):
    """The part of ``val`` for which an unsigned compare against
    ``const`` goes this way; ``None`` when no value does (an infeasible
    edge). ``jset`` and the signed compares narrow nothing — sound,
    since refinement only ever narrows."""
    if base in _NEGATED:
        base, taken = _NEGATED[base], not taken
    if base == "jeq":
        if taken:
            return val.intersect(Interval.const(const))
        # != const: trim a matching lower endpoint.
        if val.lo != const:
            return val
        return Interval(const + 1, val.hi) if const < val.hi else None
    if base == "jgt":
        const += 1  # x > const is x >= const + 1
    elif base != "jge":
        return val
    lo, hi = (const, U64) if taken else (0, const - 1)
    return val.intersect(Interval(lo, hi)) if lo <= hi else None
