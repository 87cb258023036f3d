"""The XDP JIT against the interpreter: builtin parity, fault
semantics, and the adapter wire-through."""

import struct

import pytest

from repro.flextoe.module import ACTION_DROP, ACTION_PASS, ACTION_TX
from repro.proto import FLAG_ACK, FLAG_FIN, make_tcp_frame, str_to_ip
from repro.xdp import BpfVm, VmFault, XdpAdapter, assemble, compile_program
from repro.xdp.builtins import ASM_BUILTINS, SpliceEntry, splice_key
from repro.xdp.builtins.firewall import BLACKLIST_FD, block_ip
from repro.xdp.builtins.splice import SPLICE_FD
from repro.xdp.jit import JitProgram
from repro.xdp.maps import BpfArrayMap

BAD_IP = str_to_ip("10.0.0.66")
GOOD_IP = str_to_ip("10.0.0.1")
DST_IP = str_to_ip("10.0.0.2")


def wire(src_ip, sport=1000, dport=2000, flags=FLAG_ACK, payload=b"x" * 10):
    frame = make_tcp_frame(0xA, 0xB, src_ip, DST_IP, sport, dport, flags=flags, payload=payload)
    return bytearray(frame.pack())


def _fresh(name):
    return ASM_BUILTINS[name]()


def test_all_builtins_compile():
    for name, factory in sorted(ASM_BUILTINS.items()):
        program, maps = factory()
        assert isinstance(compile_program(program, maps), JitProgram), name


def test_jit_matches_interpreter_on_firewall():
    program, maps = _fresh("firewall")
    block_ip(maps[BLACKLIST_FD], BAD_IP)
    vm = BpfVm(program, maps)
    jit = compile_program(program, maps)
    for packet in (wire(BAD_IP), wire(GOOD_IP), wire(GOOD_IP)[:20], bytearray(b"\x00" * 14)):
        a, b = bytearray(packet), bytearray(packet)
        assert jit.run(a) == vm.run(b)
        assert a == b


def test_jit_packet_mutation_matches_interpreter():
    # The vlan builtin rewrites the packet in place (PCP clear).
    program, maps = _fresh("vlan")
    vm = BpfVm(program, maps)
    jit = compile_program(program, maps)
    frame = make_tcp_frame(0xA, 0xB, GOOD_IP, DST_IP, 1000, 2000, flags=FLAG_ACK, payload=b"z" * 8)
    frame.eth.vlan = 7
    frame.eth.vlan_pcp = 5
    packet = bytearray(frame.pack())
    a, b = bytearray(packet), bytearray(packet)
    assert jit.run(a) == vm.run(b)
    assert a == b
    assert a != packet  # the PCP bits were actually cleared


def test_jit_splice_rewrites_and_map_state():
    def loaded():
        program, maps = _fresh("splice")
        entry = SpliceEntry(
            remote_mac=0x0000020000000000 | 0xC,
            remote_ip=str_to_ip("10.0.0.9"),
            local_port=4000,
            remote_port=5000,
            seq_delta=100,
            ack_delta=(1 << 32) - 100,
        )
        maps[SPLICE_FD].update(splice_key(GOOD_IP, DST_IP, 1000, 2000), entry.pack())
        return program, maps

    pv, mv = loaded()
    pj, mj = loaded()
    vm = BpfVm(pv, mv)
    jit = compile_program(pj, mj)
    for flags in (FLAG_ACK, FLAG_ACK | FLAG_FIN, FLAG_ACK):
        packet = wire(GOOD_IP, flags=flags)
        a, b = bytearray(packet), bytearray(packet)
        assert jit.run(a) == vm.run(b)
        assert a == b
    # FIN removed the entry from both maps identically.
    assert mv[SPLICE_FD].lookup(splice_key(GOOD_IP, DST_IP, 1000, 2000)) is None
    assert mj[SPLICE_FD].lookup(splice_key(GOOD_IP, DST_IP, 1000, 2000)) is None


def test_executed_counts_match_interpreter():
    program, maps = _fresh("filter")
    vm = BpfVm(program, maps)
    jit = compile_program(program, maps)
    for packet in (wire(GOOD_IP, dport=80), wire(GOOD_IP, dport=9999), bytearray(b"\x00" * 10)):
        _, executed_jit = jit.run(bytearray(packet))
        _, executed_vm = vm.run(bytearray(packet))
        assert executed_jit == executed_vm


def test_retained_guard_still_faults():
    # A verified program whose packet access is proven, run through raw
    # compile: faults must still match VmFault semantics on the
    # interpreter for identical inputs (here: none — both succeed), and
    # an unverifiable program must not compile at all.
    bad = assemble("ldxdw r0, [r1+100]\nexit")
    with pytest.raises(Exception):
        compile_program(bad, {})


def test_division_by_zero_faults_identically():
    program = assemble(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 2
        jgt r4, r3, out
        ldxh r5, [r2+0]
        mov r0, 1000
        div r0, r5
        exit
    out:
        mov r0, 0
        exit
    """
    )
    vm = BpfVm(program, {})
    jit = compile_program(program, {})
    ok = bytearray(b"\x02\x00")  # halfword 2 -> 500
    assert jit.run(bytearray(ok)) == vm.run(bytearray(ok))
    zero = bytearray(b"\x00\x00")
    with pytest.raises(VmFault):
        vm.run(bytearray(zero))
    with pytest.raises(VmFault):
        jit.run(bytearray(zero))


def _fault(backend, packet):
    with pytest.raises(VmFault) as caught:
        backend.run(bytearray(packet))
    return str(caught.value)


def test_wide_divisor_under_32_bit_div_matches_interpreter():
    # div32 divides by the full 64-bit register: a divisor whose low
    # word is zero is not a zero divisor, and a zero one faults.
    program = assemble(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 8
        jgt r4, r3, out
        ldxdw r5, [r2+0]
        mov r0, 1000
        div32 r0, r5
        exit
    out:
        mov r0, 0
        exit
    """
    )
    vm = BpfVm(program, {})
    jit = compile_program(program, {})
    for divisor in (1 << 32, (1 << 32) + 7, 3):
        packet = struct.pack("<Q", divisor)
        assert jit.run(bytearray(packet)) == vm.run(bytearray(packet))
    assert jit.run(bytearray(struct.pack("<Q", 1 << 32)))[0] == 0
    assert _fault(jit, bytes(8)) == _fault(vm, bytes(8)) == "division by zero"


def test_map_value_access_past_value_size_faults_identically():
    # Two lookups join into a map-value pointer whose fd -- and so its
    # value size -- the verifier no longer knows: it admits the access,
    # and the run-time guard is what stops the read past the 8-byte value.
    program = assemble(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 1
        jgt r4, r3, out
        ldxb r6, [r2+0]
        stw [r10-4], 0
        mov r2, r10
        sub r2, 4
        jeq r6, 0, wide
        lddw r1, map:2
        call 1
        ja joined
    wide:
        lddw r1, map:1
        call 1
    joined:
        jeq r0, 0, out
        ldxdw r0, [r0+8]
        exit
    out:
        mov r0, 0
        exit
    """
    )

    def maps():
        wide, narrow = BpfArrayMap(16, 1), BpfArrayMap(8, 1)
        wide.update(bytes(4), struct.pack("<QQ", 5, 77))
        narrow.update(bytes(4), struct.pack("<Q", 5))
        return {1: wide, 2: narrow}

    vm = BpfVm(program, maps())
    jit = compile_program(program, maps())
    assert jit.run(bytearray(b"\x00")) == vm.run(bytearray(b"\x00"))
    assert jit.run(bytearray(b"\x00"))[0] == 77
    assert _fault(jit, b"\x01") == _fault(vm, b"\x01")
    assert "out-of-bounds" in _fault(jit, b"\x01")


def test_adapter_results_identical_across_backends():
    def run_all(jit):
        program, maps = _fresh("firewall")
        block_ip(maps[BLACKLIST_FD], BAD_IP)
        adapter = XdpAdapter(program=program, maps=maps, jit=jit)
        frames = [
            make_tcp_frame(0xA, 0xB, ip, DST_IP, 1000, 2000, flags=FLAG_ACK, payload=b"p")
            for ip in (BAD_IP, GOOD_IP, BAD_IP)
        ]
        actions = [adapter.handle(f, None) for f in frames]
        assert isinstance(adapter.vm, BpfVm if jit is False else JitProgram)
        return actions, adapter.cost_cycles

    jit_actions, jit_cost = run_all(None)
    vm_actions, vm_cost = run_all(False)
    assert jit_actions == vm_actions == [ACTION_DROP, ACTION_PASS, ACTION_DROP]
    # Identical executed counts -> identical FPC cycle accounting.
    assert jit_cost == vm_cost


def test_jit_run_counters():
    program, maps = _fresh("null")
    jit = compile_program(program, maps)
    assert jit.runs == 0
    jit.run(bytearray(b"\x00" * 20))
    jit.run(bytearray(b"\x00" * 20))
    assert jit.runs == 2
    assert jit.total_instructions == 2 * 2  # mov + exit per run
