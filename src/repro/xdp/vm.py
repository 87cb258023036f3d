"""An eBPF-style virtual machine for XDP programs.

Eleven 64-bit registers (r0-r9 + frame pointer r10), a 512-byte stack,
flat-address packet and context regions, and the three BPF map helpers.
Instructions are :class:`Insn` records produced by the assembler
(:mod:`repro.xdp.asm`); the interpreter dispatches on mnemonic.

Memory is bounds-checked: any access outside the packet, stack, context,
or a returned map value faults with :class:`VmFault` (the NFP offload's
equivalent is the verifier refusing the program; ours checks at run time
as well, defense in depth for the simulator)."""

import struct

from repro.xdp.maps import BpfMapError

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# Fixed virtual addresses.
CTX_BASE = 0x100
PACKET_BASE = 0x10000
STACK_TOP = 0x7F000
STACK_SIZE = 512
MAP_VALUE_BASE = 0x20000000
MAP_VALUE_STRIDE = 0x10000

HELPER_MAP_LOOKUP = 1
HELPER_MAP_UPDATE = 2
HELPER_MAP_DELETE = 3

MAX_INSNS_EXECUTED = 100_000


class VmFault(Exception):
    """Illegal memory access, division by zero, or bad instruction."""


class Insn:
    """One instruction: mnemonic + dst/src registers + offset + imm."""

    __slots__ = ("op", "dst", "src", "off", "imm")

    def __init__(self, op, dst=0, src=0, off=0, imm=0):
        self.op = op
        self.dst = dst
        self.src = src
        self.off = off
        self.imm = imm

    def __repr__(self):
        return "<{} r{} r{} off={} imm={}>".format(self.op, self.dst, self.src, self.off, self.imm)


def _signed(value, bits=64):
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


class _Memory:
    """Flat virtual address space over named byte regions."""

    def __init__(self):
        self._regions = []  # (base, buffer)

    def add_region(self, base, buffer):
        self._regions.append((base, buffer))

    def _resolve(self, addr, size):
        for base, buffer in self._regions:
            if base <= addr and addr + size <= base + len(buffer):
                return buffer, addr - base
        raise VmFault("out-of-bounds access at 0x{:x} size {}".format(addr, size))

    def load(self, addr, size):
        buffer, offset = self._resolve(addr, size)
        return int.from_bytes(buffer[offset : offset + size], "little")

    def store(self, addr, size, value):
        buffer, offset = self._resolve(addr, size)
        buffer[offset : offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def read_bytes(self, addr, size):
        buffer, offset = self._resolve(addr, size)
        return bytes(buffer[offset : offset + size])

    def write_bytes(self, addr, data):
        buffer, offset = self._resolve(addr, len(data))
        buffer[offset : offset + len(data)] = data


_ALU_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "lsh": lambda a, b: a << (b & 63),
    "rsh": lambda a, b: a >> (b & 63),
}

_JMP_OPS = {
    "jeq": lambda a, b: a == b,
    "jne": lambda a, b: a != b,
    "jgt": lambda a, b: a > b,
    "jge": lambda a, b: a >= b,
    "jlt": lambda a, b: a < b,
    "jle": lambda a, b: a <= b,
    "jset": lambda a, b: (a & b) != 0,
    "jsgt": lambda a, b: _signed(a) > _signed(b),
    "jsge": lambda a, b: _signed(a) >= _signed(b),
    "jslt": lambda a, b: _signed(a) < _signed(b),
    "jsle": lambda a, b: _signed(a) <= _signed(b),
}

_SIZES = {"b": 1, "h": 2, "w": 4, "dw": 8}


class BpfVm:
    """Executes one program against packets; maps persist across runs."""

    def __init__(self, program, maps=None):
        self.program = program
        self.maps = dict(maps or {})
        self.total_instructions = 0
        self.runs = 0

    def run(self, packet):
        """Execute over ``packet`` (bytearray, modified in place).

        Returns (r0 result, instructions executed)."""
        memory = _Memory()
        stack = bytearray(STACK_SIZE)
        ctx = bytearray(16)
        struct.pack_into("<QQ", ctx, 0, PACKET_BASE, PACKET_BASE + len(packet))
        memory.add_region(CTX_BASE, ctx)
        memory.add_region(PACKET_BASE, packet)
        memory.add_region(STACK_TOP - STACK_SIZE, stack)
        value_regions = {}

        regs = [0] * 11
        regs[1] = CTX_BASE
        regs[10] = STACK_TOP

        pc = 0
        executed = 0
        program = self.program
        n = len(program)
        while True:
            if pc < 0 or pc >= n:
                raise VmFault("program counter out of range: {}".format(pc))
            executed += 1
            if executed > MAX_INSNS_EXECUTED:
                raise VmFault("instruction budget exceeded")
            insn = program[pc]
            op = insn.op
            pc += 1
            if op == "exit":
                self.total_instructions += executed
                self.runs += 1
                return regs[0], executed
            if op == "call":
                regs[0] = call_helper(
                    self.maps, insn.imm, regs[1], regs[2], regs[3], memory, value_regions
                )
                continue
            if op == "ja":
                pc += insn.off
                continue
            base, _, mode = op.partition(".")
            if base in _JMP_OPS:
                rhs = regs[insn.src] if mode == "reg" else insn.imm & MASK64
                if _JMP_OPS[base](regs[insn.dst], rhs):
                    pc += insn.off
                continue
            if base == "mov" or base == "mov32":
                value = regs[insn.src] if mode == "reg" else insn.imm & MASK64
                regs[insn.dst] = value & (MASK32 if base == "mov32" else MASK64)
                continue
            if base == "lddw":
                regs[insn.dst] = insn.imm & MASK64
                continue
            alu32 = base.endswith("32")
            alu_base = base[:-2] if alu32 else base
            if alu_base in _ALU_OPS:
                rhs = regs[insn.src] if mode == "reg" else insn.imm & MASK64
                mask = MASK32 if alu32 else MASK64
                result = _ALU_OPS[alu_base](regs[insn.dst] & mask, rhs & mask) & mask
                regs[insn.dst] = result
                continue
            if alu_base in ("div", "mod"):
                rhs = regs[insn.src] if mode == "reg" else insn.imm & MASK64
                if rhs == 0:
                    raise VmFault("division by zero")
                mask = MASK32 if alu32 else MASK64
                lhs = regs[insn.dst] & mask
                regs[insn.dst] = (lhs // rhs if alu_base == "div" else lhs % rhs) & mask
                continue
            if alu_base == "neg":
                mask = MASK32 if alu32 else MASK64
                regs[insn.dst] = (-regs[insn.dst]) & mask
                continue
            if alu_base == "arsh":
                rhs = regs[insn.src] if mode == "reg" else insn.imm
                bits = 32 if alu32 else 64
                regs[insn.dst] = (_signed(regs[insn.dst], bits) >> (rhs & (bits - 1))) & (
                    (1 << bits) - 1
                )
                continue
            if base.startswith("be") or base.startswith("le"):
                width = int(base[2:])
                nbytes = width // 8
                raw = (regs[insn.dst] & ((1 << width) - 1)).to_bytes(nbytes, "little")
                if base.startswith("be"):
                    regs[insn.dst] = int.from_bytes(raw, "big")
                else:
                    regs[insn.dst] = int.from_bytes(raw, "little")
                continue
            if base.startswith("ldx"):
                size = _SIZES[base[3:]]
                regs[insn.dst] = memory.load((regs[insn.src] + insn.off) & MASK64, size)
                continue
            if base.startswith("stx"):
                size = _SIZES[base[3:]]
                memory.store((regs[insn.dst] + insn.off) & MASK64, size, regs[insn.src])
                continue
            if base.startswith("st"):
                size = _SIZES[base[2:]]
                memory.store((regs[insn.dst] + insn.off) & MASK64, size, insn.imm)
                continue
            raise VmFault("unknown instruction {!r}".format(op))


def call_helper(maps, helper_id, r1, r2, r3, memory, value_regions):
    """The three map helpers; both execution backends dispatch here.

    ``r1`` is the map fd, ``r2``/``r3`` the key/value buffer addresses;
    returns the new r0. A looked-up value's live storage is mapped at a
    stable virtual address (``value_regions``: (fd, key) -> address)."""
    if helper_id not in (HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE, HELPER_MAP_DELETE):
        raise VmFault("unknown helper {}".format(helper_id))
    bpf_map = maps.get(r1)
    if bpf_map is None:
        raise VmFault("bad map fd {}".format(r1))
    key = memory.read_bytes(r2, bpf_map.key_size)
    if helper_id == HELPER_MAP_LOOKUP:
        value = bpf_map.lookup(key)
        if value is None:
            return 0
        region_key = (r1, key)
        if region_key not in value_regions:
            address = MAP_VALUE_BASE + len(value_regions) * MAP_VALUE_STRIDE
            memory.add_region(address, value)
            value_regions[region_key] = address
        return value_regions[region_key]
    if helper_id == HELPER_MAP_UPDATE:
        value = memory.read_bytes(r3, bpf_map.value_size)
        try:
            bpf_map.update(key, value)
        except BpfMapError:
            return (-1) & MASK64
        return 0
    return 0 if bpf_map.delete(key) else (-1) & MASK64
