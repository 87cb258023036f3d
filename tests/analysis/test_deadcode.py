"""Dead-code / dead-store lint for XDP programs."""

import pytest

from repro.analysis.deadcode import lint_program
from repro.xdp.asm import assemble
from repro.xdp.builtins import ASM_BUILTINS


def test_all_builtins_clean():
    for name, factory in sorted(ASM_BUILTINS.items()):
        program, maps = factory()
        assert lint_program(name, program, maps) == [], name


def test_refinement_unreachable_branch_flagged():
    # r5 is proven [3, 3]; the jeq r5, 7 edge can never be taken.
    program = assemble(
        """
        mov r5, 3
        jeq r5, 7, dead
        mov r0, 1
        exit
    dead:
        mov r0, 0
        exit
    """
    )
    findings = lint_program("t", program, None)
    codes = {(code, index) for code, index, _ in findings}
    assert ("dead-insn", 4) in codes
    assert ("dead-insn", 5) in codes
    assert not any(code == "dead-store" for code, _, _ in findings)


@pytest.mark.parametrize(
    "branch, dead",
    [
        # r5 is proven [3, 3]: the edge that contradicts it is pruned and
        # the code behind it is dead — taken edges first, then fallthroughs.
        ("jgt r5, 3, far", {4, 5}),
        ("jge r5, 4, far", {4, 5}),
        ("jlt r5, 3, far", {4, 5}),
        ("jle r5, 2, far", {4, 5}),
        ("jne r5, 3, far", {4, 5}),
        ("jgt r5, 2, far", {2, 3}),
        ("jge r5, 3, far", {2, 3}),
        ("jlt r5, 4, far", {2, 3}),
        ("jle r5, 3, far", {2, 3}),
        ("jeq r5, 3, far", {2, 3}),
        # Bit tests and signed compares are not judged.
        ("jset r5, 4, far", set()),
        ("jsgt r5, 9, far", set()),
    ],
)
def test_every_unsigned_compare_prunes_its_infeasible_edge(branch, dead):
    program = assemble(
        """
        mov r5, 3
        {}
        mov r0, 1
        exit
    far:
        mov r0, 0
        exit
    """.format(branch)
    )
    findings = lint_program("t", program, None)
    assert {index for code, index, _ in findings if code == "dead-insn"} == dead


def test_unread_stack_store_flagged():
    program = assemble(
        """
        mov r5, 42
        stxdw [r10-8], r5
        mov r0, 1
        exit
    """
    )
    findings = lint_program("t", program, None)
    assert [(code, index) for code, index, _ in findings] == [("dead-store", 1)]


def test_stack_store_read_back_not_flagged():
    program = assemble(
        """
        mov r5, 42
        stxdw [r10-8], r5
        ldxdw r0, [r10-8]
        exit
    """
    )
    assert lint_program("t", program, None) == []


def test_helper_key_read_keeps_store_live():
    # The stored word is the firewall's lookup key: read by the helper,
    # not by any load, so map-aware liveness must keep it.
    from repro.xdp.builtins.firewall import firewall_asm_program

    program, maps = firewall_asm_program()
    assert lint_program("firewall", program, maps) == []


def test_store_on_one_path_live_on_that_path():
    # The store is read on the taken path only; liveness joins paths,
    # so it must not be flagged.
    program = assemble(
        """
        ldxdw r2, [r1+0]
        mov r5, 9
        stxw [r10-4], r5
        jeq r2, 0, skip
        ldxw r0, [r10-4]
        exit
    skip:
        mov r0, 1
        exit
    """
    )
    assert lint_program("t", program, None) == []


def test_unverifiable_program_yields_no_findings():
    # Uninitialized-register programs are the verifier pass's report.
    program = assemble("mov r0, r9\nexit")
    assert lint_program("t", program, None) == []
