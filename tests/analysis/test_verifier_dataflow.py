"""The CFG verifier's abstract domain and path-sensitive checks."""

import pytest

from repro.analysis.dataflow import (
    MAP_VALUE,
    MAP_VALUE_OR_NULL,
    PKT_PTR,
    SCALAR,
    STACK_PTR,
    UNINIT,
    AbsState,
    RegVal,
)
from repro.analysis.verifier import VerifierError, verify
from repro.xdp import assemble
from repro.xdp.builtins import classifier_asm_program, firewall_asm_program, null_asm_program


# -- RegVal / AbsState lattice ------------------------------------------------


def test_meet_equal_values_is_identity():
    value = RegVal.scalar(7)
    assert value.meet(RegVal.scalar(7)) == value


def test_meet_differing_constants_forgets_the_constant():
    met = RegVal.scalar(7).meet(RegVal.scalar(9))
    assert met.kind == SCALAR
    assert met.const is None


def test_meet_differing_kinds_is_uninit():
    met = RegVal.scalar(7).meet(RegVal.pointer(PKT_PTR, 0))
    assert met.kind == UNINIT


def test_meet_checked_and_unchecked_map_value():
    checked = RegVal.pointer(MAP_VALUE, 0, fd=1)
    unchecked = RegVal(MAP_VALUE_OR_NULL, off=0, fd=1)
    assert checked.meet(unchecked).kind == MAP_VALUE_OR_NULL
    assert unchecked.meet(checked).kind == MAP_VALUE_OR_NULL


def test_meet_differing_pointer_offsets_forgets_offset():
    met = RegVal.pointer(STACK_PTR, -4).meet(RegVal.pointer(STACK_PTR, -8))
    assert met.kind == STACK_PTR
    assert met.off is None


def test_state_meet_intersects_stack_and_packet_facts():
    a = AbsState(stack_init=0b1111, pkt_valid=34)
    b = AbsState(stack_init=0b1100, pkt_valid=14)
    met = a.meet(b)
    assert met.stack_init == 0b1100
    assert met.pkt_valid == 14


def test_default_entry_state():
    state = AbsState()
    assert state.regs[1].kind == "ctx_ptr"
    assert state.regs[10].kind == STACK_PTR
    assert state.regs[0].is_uninit


# -- end-to-end acceptance ----------------------------------------------------


def test_builtin_programs_verify():
    for factory in (null_asm_program, firewall_asm_program, classifier_asm_program):
        program, maps = factory()
        assert verify(program, maps)


def test_packet_access_requires_bounds_proof():
    # Dereferencing packet data without comparing against data_end.
    source = """
        ldxdw r2, [r1+0]
        ldxb r0, [r2+0]
        exit
    """
    with pytest.raises(VerifierError, match="outside verified bounds"):
        verify(assemble(source))


def test_packet_access_inside_proven_bounds_accepted():
    source = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 14
        jgt r4, r3, out
        ldxb r0, [r2+13]
        exit
    out:
        mov r0, 1
        exit
    """
    assert verify(assemble(source))


def test_packet_access_beyond_proven_bounds_rejected():
    source = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 14
        jgt r4, r3, out
        ldxb r0, [r2+14]
        exit
    out:
        mov r0, 1
        exit
    """
    with pytest.raises(VerifierError, match="outside verified bounds"):
        verify(assemble(source))


def test_map_lookup_requires_null_check():
    source = """
        mov r5, 0
        stxw [r10-4], r5
        lddw r1, map:1
        mov r2, r10
        sub r2, 4
        call 1
        ldxw r0, [r0+0]
        exit
    """
    with pytest.raises(VerifierError, match="may be NULL"):
        verify(assemble(source))


def test_map_lookup_after_null_check_accepted():
    source = """
        mov r5, 0
        stxw [r10-4], r5
        lddw r1, map:1
        mov r2, r10
        sub r2, 4
        call 1
        jeq r0, 0, out
        ldxw r0, [r0+0]
        exit
    out:
        mov r0, 1
        exit
    """
    assert verify(assemble(source))


def test_uninitialized_stack_read_rejected():
    source = """
        ldxw r0, [r10-4]
        exit
    """
    with pytest.raises(VerifierError, match="uninitialized stack"):
        verify(assemble(source))


def test_stack_key_must_cover_key_size():
    # With map metadata, the helper's key argument is checked against
    # key_size (4); only 1 byte of the key was initialized.
    from repro.xdp import BpfHashMap

    source = """
        mov r5, 0
        stxb [r10-4], r5
        lddw r1, map:1
        mov r2, r10
        sub r2, 4
        call 1
        mov r0, 1
        exit
    """
    with pytest.raises(VerifierError, match="uninitialized stack"):
        verify(assemble(source), {1: BpfHashMap(4, 8, 16)})


def test_map_value_access_bounded_by_value_size():
    from repro.xdp import BpfHashMap

    source = """
        mov r5, 0
        stxw [r10-4], r5
        lddw r1, map:1
        mov r2, r10
        sub r2, 4
        call 1
        jeq r0, 0, out
        ldxdw r3, [r0+8]
        exit
    out:
        mov r0, 1
        exit
    """
    with pytest.raises(VerifierError, match="exceeds value size"):
        verify(assemble(source), {1: BpfHashMap(4, 8, 16)})


def test_context_is_read_only_and_bounded():
    with pytest.raises(VerifierError, match="read-only context"):
        verify(assemble("mov r2, 1\nstxw [r1+0], r2\nmov r0, 1\nexit"))
    with pytest.raises(VerifierError, match="out of bounds"):
        verify(assemble("ldxdw r2, [r1+16]\nmov r0, 1\nexit"))


def test_unreachable_code_rejected():
    with pytest.raises(VerifierError, match="unreachable"):
        verify(assemble("mov r0, 1\nja 1\nmov r0, 2\nexit"))


# -- variable-offset packet access (interval × tnum domain) -------------------

# An IPv4 parse with a variable-length header: the IHL nibble is loaded
# with ldxb, masked, scaled, folded into a packet pointer, and the
# resulting variable pointer is bounds-checked against data_end before
# the dereference. The PR-1 constants-only domain rejected this shape.
VAR_IHL_PROGRAM = """
    ldxdw r2, [r1+0]
    ldxdw r3, [r1+8]
    mov r4, r2
    add r4, 34
    jgt r4, r3, out
    ldxb r5, [r2+14]
    and r5, 15
    lsh r5, 2
    mov r6, r2
    add r6, 14
    add r6, r5
    mov r7, r6
    add r7, 4
    jgt r7, r3, out
    ldxw r0, [r6+0]
    exit
out:
    mov r0, 1
    exit
"""


def test_variable_length_ip_header_accepted():
    assert verify(assemble(VAR_IHL_PROGRAM))


def test_variable_offset_without_check_rejected():
    # Same parse, but the variable pointer is dereferenced without the
    # second data_end comparison.
    source = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 34
        jgt r4, r3, out
        ldxb r5, [r2+14]
        and r5, 15
        lsh r5, 2
        mov r6, r2
        add r6, 14
        add r6, r5
        ldxw r0, [r6+0]
        exit
    out:
        mov r0, 1
        exit
    """
    with pytest.raises(VerifierError, match="outside verified bounds"):
        verify(assemble(source))


def test_variable_offset_check_too_short_rejected():
    # The data_end proof covers only 2 bytes past the variable offset;
    # the 4-byte load must still be rejected.
    source = VAR_IHL_PROGRAM.replace("add r7, 4", "add r7, 2")
    with pytest.raises(VerifierError, match="outside verified bounds"):
        verify(assemble(source))


def test_unbounded_variable_offset_rejected():
    # A full 64-bit scalar (no mask) folded into a packet pointer could
    # wrap past data_end; the fold must refuse unbounded variables.
    source = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        ldxdw r5, [r1+0]
        mov r6, r2
        add r6, 14
        add r6, r5
        mov r7, r6
        add r7, 4
        jgt r7, r3, out
        ldxw r0, [r6+0]
        exit
    out:
        mov r0, 1
        exit
    """
    with pytest.raises(VerifierError, match="non-pointer|outside verified bounds|constant"):
        verify(assemble(source))


def test_branch_refinement_bounds_a_loaded_scalar():
    # jlt on a loaded word refines its range enough to prove a
    # constant-extra access through the checked variable pointer.
    source = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 18
        jgt r4, r3, out
        ldxw r5, [r2+14]
        jge r5, 64, out
        mov r6, r2
        add r6, 14
        add r6, r5
        mov r7, r6
        add r7, 2
        jgt r7, r3, out
        ldxh r0, [r6+0]
        exit
    out:
        mov r0, 1
        exit
    """
    assert verify(assemble(source))


def test_mov32_truncation_destroys_pointer_provenance():
    # A 32-bit move of a packet pointer must not remain dereferenceable.
    source = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 14
        jgt r4, r3, out
        mov32 r5, r2
        ldxb r0, [r5+0]
        exit
    out:
        mov r0, 1
        exit
    """
    with pytest.raises(VerifierError, match="non-pointer"):
        verify(assemble(source))


# -- refinement and pointer-arithmetic arms, one accept + one reject each -----

# r2 = data, r3 = data_end, ``checked`` packet bytes proven; ``body``
# runs on the in-bounds path and every escape lands on ``out``.
def _with_prologue(checked, body):
    return assemble(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, {}
        jgt r4, r3, out
        {}
        exit
    out:
        mov r0, 1
        exit
    """.format(checked, body)
    )


# Fold r5 into a packet pointer and read two bytes behind a data_end
# check: accepted only when r5's range is known to be small.
_FOLD_R5 = """
        mov r6, r2
        add r6, 14
        add r6, r5
        mov r7, r6
        add r7, 2
        jgt r7, r3, out
        ldxh r0, [r6+0]
"""


@pytest.mark.parametrize("guard", ["jlt r5, 64, small", "jle r5, 63, small"])
def test_less_than_refines_the_taken_edge(guard):
    body = "ldxw r5, [r2+14]\n{}\nja out\nsmall:\n{}".format(guard, _FOLD_R5)
    assert verify(_with_prologue(18, body))


@pytest.mark.parametrize("guard", ["jlt r5, 64, out", "jle r5, 63, out"])
def test_less_than_leaves_the_other_edge_unbounded_above(guard):
    # Falling through a less-than proves r5 >= 64 and nothing from above.
    body = "ldxw r5, [r2+14]\n{}\n{}".format(guard, _FOLD_R5)
    with pytest.raises(VerifierError, match="pointer offset unknown"):
        verify(_with_prologue(18, body))


def test_less_than_fallthrough_proves_a_nonzero_divisor():
    from repro.analysis.verifier import verify_states

    def nonzero(guard):
        body = "ldxb r5, [r2+0]\n{}\nmov r0, 100\ndiv r0, r5".format(guard)
        program = _with_prologue(1, body)
        states = verify_states(program, {})
        return [
            not state.regs[5].val.contains(0)
            for insn, state in zip(program, states)
            if insn.op == "div.reg"
        ]

    assert nonzero("jlt r5, 1, out") == [True]
    assert nonzero("jlt r5, 0, out") == [False]  # r5 >= 0 says nothing


def test_mov32_keeps_the_range_of_a_small_scalar():
    body = "ldxb r8, [r2+14]\nmov32 r5, r8\n" + _FOLD_R5
    assert verify(_with_prologue(18, body))


def test_mov32_of_a_wide_scalar_is_only_32_bit_bounded():
    body = "ldxdw r8, [r2+8]\nmov32 r5, r8\n" + _FOLD_R5
    with pytest.raises(VerifierError, match="pointer offset unknown"):
        verify(_with_prologue(18, body))


def test_unbounded_scalar_leaves_a_pointer_that_cannot_be_dereferenced():
    # The packet-loaded counterpart of the test above: the fold refuses
    # the variable and the pointer keeps only its region.
    body = "ldxdw r5, [r2+8]\n" + _FOLD_R5
    with pytest.raises(VerifierError, match="pointer offset unknown"):
        verify(_with_prologue(18, body))


# r6 is data+2 on one path and data+4 on the other: a packet pointer
# whose offset the join forgot.
_JOINED_POINTER = """
        ldxb r5, [r2+0]
        mov r6, r2
        add r6, 2
        jeq r5, 0, joined
        add r6, 2
    joined:
        add r6, 1
"""


def test_unknown_offset_pointer_may_be_computed_with():
    assert verify(_with_prologue(16, _JOINED_POINTER + "mov r0, 2"))


def test_unknown_offset_pointer_may_not_be_dereferenced():
    with pytest.raises(VerifierError, match="pointer offset unknown"):
        verify(_with_prologue(16, _JOINED_POINTER + "ldxb r0, [r6+0]"))


# A 4-bit index folded into data+14: its largest reach is data+14+15.
_INDEXED = """
        ldxb r5, [r2+14]
        and r5, 15
        mov r6, r2
        add r6, 14
        add r6, r5
        ldxb r0, [r6+0]
"""


def test_variable_access_inside_the_constant_bound_needs_no_second_check():
    assert verify(_with_prologue(30, _INDEXED))


def test_variable_access_reaching_past_the_constant_bound_rejected():
    with pytest.raises(VerifierError, match="outside verified bounds"):
        verify(_with_prologue(29, _INDEXED))


# Only data+15 is proven up front; the check through the variable
# pointer (data+14+var+20 <= data_end, var >= 0) proves data+34.
_VARIABLE_CHECK = """
        ldxb r5, [r2+14]
        and r5, 15
        mov r6, r2
        add r6, 14
        add r6, r5
        mov r7, r6
        add r7, 20
        jgt r7, r3, out
"""


def test_check_through_variable_pointer_extends_the_constant_bound():
    assert verify(_with_prologue(15, _VARIABLE_CHECK + "ldxw r0, [r2+30]"))


def test_check_through_variable_pointer_extends_it_no_further():
    with pytest.raises(VerifierError, match="outside verified bounds"):
        verify(_with_prologue(15, _VARIABLE_CHECK + "ldxw r0, [r2+31]"))


@pytest.mark.parametrize(
    "body, message",
    [
        # data_end on the left of the bounds compare proves nothing.
        ("mov r6, r2\nadd r6, 20\njlt r3, r6, out\nldxb r0, [r2+19]", "outside verified bounds"),
        # A constant on the left of a compare refines nothing.
        ("ldxw r5, [r2+14]\nmov r8, 64\njle r8, r5, out\n" + _FOLD_R5, "pointer offset unknown"),
        # != trims a matching lower endpoint only.
        (
            "ldxb r5, [r2+0]\njeq r5, 255, out\nadd r5, 65282\n" + _FOLD_R5,
            "pointer offset unknown",
        ),
        # scalar + pointer is an unknown scalar, not a pointer.
        ("mov r6, 14\nadd r6, r2\nldxb r0, [r6+0]", "non-pointer"),
        # neg folds no constant.
        ("mov r5, 0\nneg r5\n" + _FOLD_R5, "pointer offset unknown"),
    ],
    ids=["data_end-on-the-left", "constant-on-the-left", "jne-upper-endpoint", "scalar+pointer", "neg"],
)
def test_shapes_the_verifier_does_not_credit(body, message):
    """Sound weakenings: each is a safe program the verifier refuses
    because no builtin needs the proof (DESIGN §9's precision ledger)."""
    with pytest.raises(VerifierError, match=message):
        verify(_with_prologue(18, body))


def test_dataflow_transfers_each_reachable_instruction_once(monkeypatch):
    from repro.analysis import verifier
    from repro.xdp.builtins import ASM_BUILTINS

    program, maps = ASM_BUILTINS["detector"]()
    calls = []
    transfer = verifier._Verifier.transfer
    monkeypatch.setattr(
        verifier._Verifier,
        "transfer",
        lambda self, index, state: calls.append(index) or transfer(self, index, state),
    )
    states = verifier.verify_states(program, maps)
    assert len(program) == 92
    assert calls == [index for index, state in enumerate(states) if state is not None]
