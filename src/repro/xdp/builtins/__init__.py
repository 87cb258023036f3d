"""Builtin XDP modules from the paper, as eBPF assembly: splicing,
firewall, VLAN priority clear, flow classification, the attack detector
and the null program (Table 2) — plus the control-plane helpers for
their maps."""

from repro.xdp.builtins.splice import (
    SpliceEntry,
    splice_asm_program,
    splice_key,
)
from repro.xdp.builtins.firewall import firewall_asm_program
from repro.xdp.builtins.vlan import vlan_asm_program
from repro.xdp.builtins.filter import classifier_asm_program
from repro.xdp.builtins.null import null_asm_program
from repro.xdp.builtins.detector import (
    decay_features,
    detector_asm_program,
    read_features,
    set_thresholds,
)

#: name -> zero-argument factory returning (program, maps); the lint
#: CLI's XDP passes and the JIT test-suite sweep iterate this.
ASM_BUILTINS = {
    "null": null_asm_program,
    "filter": classifier_asm_program,
    "firewall": firewall_asm_program,
    "vlan": vlan_asm_program,
    "splice": splice_asm_program,
    "detector": detector_asm_program,
}

__all__ = [
    "ASM_BUILTINS",
    "SpliceEntry",
    "classifier_asm_program",
    "decay_features",
    "detector_asm_program",
    "firewall_asm_program",
    "null_asm_program",
    "read_features",
    "set_thresholds",
    "splice_asm_program",
    "splice_key",
    "vlan_asm_program",
]
