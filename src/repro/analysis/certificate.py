"""Proof-carrying compilation certificates for XDP programs.

The CFG verifier (:mod:`repro.analysis.verifier`) computes a fixpoint:
for every instruction, an abstract state (:class:`AbsState`) that
soundly describes every concrete machine state reaching it. A
:class:`ProofTable` exports that fixpoint — per-instruction invariants
plus the derived *facts* the JIT consumes (pointer region and offset
bounds for each load/store, nonzero-divisor proofs, resolved jump
targets, helper fds) — as a machine-checkable certificate.

:func:`check_certificate` independently re-validates a certificate
without re-running the verifier. Its trust argument:

* **structure** — own pass: non-empty DAG, all control transfers land
  forward and in range (termination and the JIT's forward-only
  code layout follow);
* **induction** — the claimed invariants are closed under single
  instruction steps: the entry state entails the certified state at
  instruction 0, and for every instruction, one application of the
  abstract transfer to its certified state *entails* the certified
  state of each successor (:meth:`AbsState.entails`, a pointwise
  weaker-or-equal test). Neither the verifier's pass order nor its
  merge at joins is trusted — those only decide *which* invariant was
  exported, not whether this one is valid;
* **obligations** — every fact is recomputed here from the certified
  states with :func:`derive_facts`' own bounds arithmetic and compared
  for exact equality, so a tampered ``elide`` bit or bound never
  reaches the JIT.

The single shared component is the transfer function itself (via
:func:`repro.analysis.verifier.transfer_step`), which is deterministic
by construction (variable-part ids derive from instruction indices).

Tampering with any single instruction's entry — claiming more packet
bytes, an initialized stack byte, a narrower scalar, a non-null map
value — breaks the induction step from its predecessors (or the entry
check at instruction 0) and is rejected.
"""

import hashlib

from repro.analysis.dataflow import (
    CTX_PTR,
    MAP_VALUE,
    PKT_PTR,
    SCALAR,
    STACK_PTR,
    STACK_SIZE,
    AbsState,
)
from repro.analysis.verifier import (
    CTX_SIZE,
    MAX_PROGRAM_LEN,
    VALID_HELPERS,
    VerifierError,
    transfer_step,
    verify_states,
)

#: Schema of the exported states; ``from_jsonable`` refuses any other.
CERT_VERSION = 2

_SIZES = {"b": 1, "h": 2, "w": 4, "dw": 8}

_DEREF_KINDS = frozenset((CTX_PTR, PKT_PTR, STACK_PTR, MAP_VALUE))


class CertificateError(Exception):
    """The certificate does not prove this program safe."""


def program_digest(program):
    """Canonical SHA-256 of an instruction list.

    Binds a certificate to one exact program: the checker refuses to
    apply facts proven about different code.
    """
    hasher = hashlib.sha256()
    for insn in program:
        hasher.update(
            "{} {} {} {} {}\n".format(insn.op, insn.dst, insn.src, insn.off, insn.imm).encode()
        )
    return hasher.hexdigest()


class ProofTable:
    """A verifier certificate: per-instruction invariants + derived facts."""

    __slots__ = ("digest", "states", "facts")

    def __init__(self, digest, states, facts):
        self.digest = digest
        self.states = states  # list[AbsState]
        self.facts = facts  # list[dict or None], parallel to the program

    def elision_stats(self):
        """Counts of run-time checks the facts allow the JIT to drop."""
        stats = {
            "mem_elided": 0,
            "mem_retained": 0,
            "div_elided": 0,
            "div_retained": 0,
            "insns": len(self.facts),
        }
        for fact in self.facts:
            if fact is None:
                continue
            if fact["type"] == "mem":
                stats["mem_elided" if fact["elide"] else "mem_retained"] += 1
            elif fact["type"] == "div":
                stats["div_elided" if fact["nonzero"] else "div_retained"] += 1
        return stats

    def to_jsonable(self):
        return {
            "version": CERT_VERSION,
            "digest": self.digest,
            "states": [state.to_jsonable() for state in self.states],
            "facts": self.facts,
            "stats": self.elision_stats(),
        }

    @classmethod
    def from_jsonable(cls, data):
        if data.get("version") != CERT_VERSION:
            raise CertificateError("unsupported certificate version {!r}".format(data.get("version")))
        states = [AbsState.from_jsonable(state) for state in data["states"]]
        return cls(data["digest"], states, list(data["facts"]))


# -- fact derivation (the checker's own bounds arithmetic) -----------------


def _map_value_size(maps, fd):
    if maps is None or fd is None:
        return None
    bpf_map = maps.get(fd)
    return None if bpf_map is None else bpf_map.value_size


def _mem_fact(index, insn, state, access, ptr_reg, size, maps):
    """Region + resolved bounds for one load/store; raises when the
    certified state cannot justify the access."""

    def err(message):
        raise CertificateError("insn {}: {}".format(index, message))

    ptr = state.regs[ptr_reg]
    kind = ptr.kind
    if kind not in _DEREF_KINDS:
        err("memory access through {}".format(kind))
    if ptr.off is None:
        err("pointer offset unknown; access cannot be bounded")
    var_lo = ptr.var.lo if ptr.var is not None else 0
    var_hi = ptr.var.hi if ptr.var is not None else 0
    lo = ptr.off + var_lo + insn.off
    hi = ptr.off + var_hi + insn.off + size
    elide = False
    if kind == CTX_PTR:
        if access == "store":
            err("store to read-only context")
        if ptr.var is not None:
            err("context access requires a constant offset")
        if lo < 0 or hi > CTX_SIZE:
            err("context access [{}, {}) out of bounds".format(lo, hi))
        elide = True
    elif kind == STACK_PTR:
        if ptr.var is not None:
            err("variable stack offset cannot be tracked")
        if lo < -STACK_SIZE or hi > 0:
            err("stack access [{}, {}) out of bounds".format(lo, hi))
        if access == "load":
            mask = ((1 << size) - 1) << (STACK_SIZE + lo)
            if state.stack_init & mask != mask:
                err("read of uninitialized stack bytes at r10{:+d}".format(lo))
        elide = True
    elif kind == PKT_PTR:
        if lo < 0:
            err("packet access [{}, {}) has a negative offset".format(lo, hi))
        if ptr.var is None:
            if hi > state.pkt_valid:
                err(
                    "packet access [{}, {}) exceeds the {} bytes proven on this path".format(
                        lo, hi, state.pkt_valid
                    )
                )
        else:
            checked = state.pkt_checked.get(ptr.vid)
            if not (
                (checked is not None and ptr.off + insn.off + size <= checked)
                or hi <= state.pkt_valid
            ):
                err(
                    "variable packet access [{}, {}) not covered by any data_end proof".format(
                        lo, hi
                    )
                )
        elide = True
    else:  # MAP_VALUE
        if lo < 0:
            err("negative map-value offset {}".format(lo))
        value_size = _map_value_size(maps, ptr.fd)
        if value_size is not None:
            if hi > value_size:
                err("map-value access [{}, {}) exceeds value size {}".format(lo, hi, value_size))
            elide = True
        # Unknown value size: the verifier admits the access, but it is
        # unproven — the JIT must keep the run-time guard.
    return {
        "type": "mem",
        "access": access,
        "ptr": ptr_reg,
        "size": size,
        "region": kind,
        "lo": lo,
        "hi": hi,
        "elide": elide,
    }


def _div_fact(insn, state, mode):
    """Nonzero-divisor proof. The VM checks the *full 64-bit* source
    register even for 32-bit division, so the proof must too."""
    if mode == "imm":
        nonzero = (insn.imm & ((1 << 64) - 1)) != 0
    else:
        src = state.regs[insn.src]
        if src.kind == SCALAR:
            nonzero = not src.val.contains(0)
        else:
            # Pointer divisors are bizarre but legal; keep the guard.
            nonzero = False
    return {"type": "div", "nonzero": nonzero}


def derive_facts(program, states, maps=None):
    """Per-instruction facts implied by the certified invariants.

    Pure and deterministic: the exporter calls it to build the
    certificate and the checker calls it again to confirm the stored
    facts match, so both sides share one definition of what is proven.
    """
    facts = []
    for index, insn in enumerate(program):
        state = states[index]
        base, _, mode = insn.op.partition(".")
        fact = None
        if base.startswith("ldx"):
            fact = _mem_fact(index, insn, state, "load", insn.src, _SIZES[base[3:]], maps)
        elif base.startswith("stx"):
            fact = _mem_fact(index, insn, state, "store", insn.dst, _SIZES[base[3:]], maps)
        elif base.startswith("st") and base != "st32":  # st{b,h,w,dw}
            fact = _mem_fact(index, insn, state, "store", insn.dst, _SIZES[base[2:]], maps)
        elif base in ("div", "mod", "div32", "mod32"):
            fact = _div_fact(insn, state, mode)
        elif base == "call":
            fd_val = state.regs[1]
            fd = fd_val.const if fd_val.kind == SCALAR else None
            fact = {"type": "call", "helper": insn.imm, "fd": fd}
        elif base == "ja" or (base.startswith("j") and base != "ja"):
            fact = {"type": "jump", "target": index + 1 + insn.off}
        elif base == "exit":
            fact = {"type": "exit"}
        facts.append(fact)
    return facts


# -- export / check --------------------------------------------------------


def export_certificate(program, maps=None):
    """Verify ``program`` and export the proof as a :class:`ProofTable`."""
    states = verify_states(program, maps)
    facts = derive_facts(program, states, maps)
    return ProofTable(program_digest(program), states, facts)


def _structural_check(program):
    """Own DAG pass: every control transfer lands strictly forward and
    inside the program; only ``exit`` terminates. Termination and the
    JIT's forward-only code layout both rest on this."""
    n = len(program)
    if n == 0:
        raise CertificateError("empty program")
    if n > MAX_PROGRAM_LEN:
        raise CertificateError("program too long ({} insns)".format(n))
    for index, insn in enumerate(program):
        base = insn.op.partition(".")[0]
        if base == "exit":
            continue
        if base == "call" and insn.imm not in VALID_HELPERS:
            raise CertificateError("insn {}: unknown helper {}".format(index, insn.imm))
        succs = [index + 1]
        if base == "ja":
            succs = [index + 1 + insn.off]
        elif base.startswith("j"):
            succs = [index + 1, index + 1 + insn.off]
        for succ in succs:
            if succ <= index:
                raise CertificateError("insn {}: backward control transfer to {}".format(index, succ))
            if succ >= n:
                raise CertificateError("insn {}: control leaves the program ({})".format(index, succ))


def check_certificate(program, cert, maps=None):
    """Re-validate ``cert`` against ``program``; raises
    :class:`CertificateError` unless every claim is justified.

    This is the JIT's entire trust base — a linear pass over the
    program, one abstract step per instruction.
    """
    if not isinstance(cert, ProofTable):
        raise CertificateError("not a ProofTable")
    if cert.digest != program_digest(program):
        raise CertificateError("certificate does not match this program")
    _structural_check(program)
    if len(cert.states) != len(program) or len(cert.facts) != len(program):
        raise CertificateError(
            "certificate covers {} instructions, program has {}".format(
                len(cert.states), len(program)
            )
        )
    for index, state in enumerate(cert.states):
        if not isinstance(state, AbsState):
            raise CertificateError("insn {}: missing certified state".format(index))
    # Induction base: the concrete entry state is described by states[0].
    if not AbsState().entails(cert.states[0]):
        raise CertificateError("entry state is not entailed by the certified invariant")
    # Induction step: invariants are closed under single transfers.
    for index in range(len(program)):
        try:
            outs = transfer_step(program, index, cert.states[index].copy(), maps)
        except VerifierError as exc:
            raise CertificateError(
                "certified state does not justify insn {}: {}".format(index, exc)
            )
        for succ, out in outs:
            # _structural_check proved succ is in range and forward.
            if not out.entails(cert.states[succ]):
                raise CertificateError(
                    "step {} -> {}: transfer output not entailed by the certified "
                    "invariant".format(index, succ)
                )
    # Obligations: stored facts must be exactly what the states prove.
    if derive_facts(program, cert.states, maps) != cert.facts:
        raise CertificateError("stored facts disagree with the certified states")
    return True
