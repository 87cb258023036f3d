"""XDP/eBPF support for the FlexTOE data-path (paper §3.3).

eBPF programs can be compiled to NFP assembly and dynamically loaded
into FlexTOE; here they run on a faithful register VM:

* :mod:`repro.xdp.maps` — BPF maps (array / hash / LRU-hash) with the
  atomic update semantics modules and the control plane share.
* :mod:`repro.xdp.vm` — a 64-bit 11-register eBPF interpreter with
  packet/stack/map memory and the map helpers.
* :mod:`repro.xdp.asm` — a textual assembler producing VM programs.
* :mod:`repro.analysis.verifier` — load-time checks (bounded programs,
  no back-edges, register initialization, valid helpers), re-exported
  here as ``verify`` / ``VerifierError``.
* :mod:`repro.xdp.adapter` — runs a program as a FlexTOE pipeline
  module, charging FPC cycles per instruction executed. It is the only
  way an XDP program runs: verified, then JIT-compiled.
* :mod:`repro.xdp.jit` — a verified program becomes one specialized
  Python closure (no per-packet mnemonic dispatch; every access keeps
  the interpreter's run-time guard).
* :mod:`repro.xdp.builtins` — the paper's example modules: connection
  splicing (Listing 1), firewall, VLAN priority clear, flow classifier,
  attack detector, null — eBPF assembly plus their map helpers.
"""

from repro.xdp.adapter import XdpAdapter
from repro.xdp.asm import assemble
from repro.xdp.jit import JitProgram, compile_program
from repro.xdp.maps import BpfArrayMap, BpfHashMap, BpfLruHashMap
from repro.xdp.program import XDP_DROP, XDP_PASS, XDP_REDIRECT, XDP_TX
from repro.analysis.verifier import VerifierError, verify
from repro.xdp.vm import BpfVm, VmFault

__all__ = [
    "BpfArrayMap",
    "BpfHashMap",
    "BpfLruHashMap",
    "BpfVm",
    "JitProgram",
    "VerifierError",
    "VmFault",
    "XDP_DROP",
    "XDP_PASS",
    "XDP_REDIRECT",
    "XDP_TX",
    "XdpAdapter",
    "assemble",
    "compile_program",
    "verify",
]
