"""Runs XDP programs as FlexTOE pipeline modules.

:class:`XdpAdapter` loads an eBPF program
(:func:`repro.xdp.jit.compile_program`: verify, generate code) and runs
it per frame: the frame is serialized to wire bytes, executed over, and
re-parsed if modified. The FPC cycle charge is ``CYCLES_SETUP`` plus the
instructions the program executed (the NFP executes offloaded eBPF
natively).

FlexTOE handles sequencing/reordering around replicated XDP stages
(§3.2/§3.3); the adapter plugs into the same hook machinery as native
modules, so that applies automatically.

``jit=False`` runs the verified program on the :class:`BpfVm`
interpreter instead, the differential oracle the parity tests compare
the JIT against; results and instruction counts are identical.
"""

from repro.flextoe.module import ACTION_DROP, ACTION_PASS, ACTION_REDIRECT, ACTION_TX, DatapathModule
from repro.proto.packet import Frame
from repro.xdp.program import XDP_DROP, XDP_PASS, XDP_REDIRECT, XDP_TX
from repro.analysis.verifier import verify

_RESULT_TO_ACTION = {
    XDP_PASS: ACTION_PASS,
    XDP_DROP: ACTION_DROP,
    XDP_TX: ACTION_TX,
    XDP_REDIRECT: ACTION_REDIRECT,
}

#: Cycles per interpreted eBPF instruction on an FPC (≈1 with the NFP's
#: native translation; the small constant covers packet-memory staging).
CYCLES_PER_INSN = 1
CYCLES_SETUP = 12


class XdpAdapter(DatapathModule):
    """Wraps a verified eBPF program as a data-path module."""

    def __init__(self, program, maps=None, name="xdp-vm", jit=None):
        if jit is None or jit:
            from repro.xdp.jit import compile_program

            self.vm = compile_program(program, maps)
        else:
            verify(program, maps)
            from repro.xdp.vm import BpfVm

            self.vm = BpfVm(program, maps)
        self.name = name
        self.invocations = 0
        self.results = {XDP_PASS: 0, XDP_DROP: 0, XDP_TX: 0, XDP_REDIRECT: 0}
        self.cost_cycles = CYCLES_SETUP + 24  # refined after each run

    def handle(self, frame, meta):
        self.invocations += 1
        packed = frame.pack()
        wire = bytearray(packed)
        result, executed = self.vm.run(wire)
        self.cost_cycles = CYCLES_SETUP + CYCLES_PER_INSN * executed
        if wire != packed:
            # The program rewrote the packet: re-parse into the frame.
            reparsed = Frame.unpack(bytes(wire))
            frame.eth = reparsed.eth
            frame.ip = reparsed.ip
            frame.tcp = reparsed.tcp
            frame.arp = reparsed.arp
            frame.payload = reparsed.payload
        self.results[result] = self.results.get(result, 0) + 1
        return _RESULT_TO_ACTION.get(result, ACTION_PASS)
