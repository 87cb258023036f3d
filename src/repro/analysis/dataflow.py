"""The abstract domain for the CFG verifier.

A scalar is one unsigned 64-bit **interval** ``[lo, hi]``: value-range
facts from size-bounded loads, masks, shifts and branches, so
``ldxb r5, [r2+14]; and r5, 0x0f; lsh r5, 2`` yields a scalar proven in
``[0, 60]`` — enough to bound a variable-length IP header offset.

Pointers carry a constant offset plus, for packet pointers, an optional
bounded *variable* part tagged with an id (``vid``). A bounds comparison
against ``data_end`` through one pointer proves access through any other
pointer sharing the same ``vid`` (the unknown variable cancels), which
is how ``pkt + hdr_len + k`` accesses are verified.

``meet`` combines states at control-flow joins and is sound by
construction: a fact holds after the join only if it held on *every*
incoming path.
"""

STACK_SIZE = 512

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1

#: A scalar may be folded into a packet pointer's variable part only when
#: its maximum is at most this, so base + variable can never wrap 64 bits
#: (mirrors the kernel's bounded-packet-offset rule).
PKT_VAR_BOUND = 1 << 16

# Register kinds.
UNINIT = "uninit"
SCALAR = "scalar"
CTX_PTR = "ctx_ptr"  # pointer into the 16-byte xdp context
PKT_PTR = "pkt_ptr"  # pointer into packet data
PKT_END = "pkt_end"  # the data_end sentinel
STACK_PTR = "stack_ptr"  # pointer relative to the frame pointer (r10)
MAP_VALUE = "map_value"  # non-NULL pointer into a map value
MAP_VALUE_OR_NULL = "map_value_or_null"  # lookup result before the null check

_POINTER_KINDS = frozenset((CTX_PTR, PKT_PTR, STACK_PTR, MAP_VALUE))


def _ceil_mask(x):
    """Smallest all-ones value >= x (0 for 0)."""
    return (1 << x.bit_length()) - 1


class Interval:
    """A scalar's abstract value: the unsigned 64-bit range ``[lo, hi]``
    (inclusive). Immutable; every operation returns a new range."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if not (0 <= lo <= hi <= U64):
            raise ValueError("bad interval [{}, {}]".format(lo, hi))
        self.lo = lo
        self.hi = hi

    @classmethod
    def const(cls, value):
        value &= U64
        return cls(value, value)

    @classmethod
    def top(cls):
        return cls(0, U64)

    @classmethod
    def bounded(cls, hi):
        """Unknown value within ``[0, hi]`` (a size-bounded load)."""
        return cls(0, hi)

    @property
    def const_value(self):
        """The value, when the range is a singleton; else ``None``."""
        return self.lo if self.lo == self.hi else None

    def contains(self, value):
        return self.lo <= value <= self.hi

    # -- lattice -----------------------------------------------------------

    def join(self, other):
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    # -- wrapping unsigned 64-bit arithmetic -------------------------------
    # Each op returns a sound over-approximation of the concrete result
    # set under mod-2^64 semantics: exact when no endpoint wraps or when
    # the whole range wraps together, top when the range straddles the
    # wrap point.

    def add(self, other):
        lo, hi = self.lo + other.lo, self.hi + other.hi
        if hi <= U64:
            return Interval(lo, hi)
        if lo > U64:
            return Interval(lo - (U64 + 1), hi - (U64 + 1))
        return Interval.top()

    def sub(self, other):
        lo, hi = self.lo - other.hi, self.hi - other.lo
        if lo >= 0:
            return Interval(lo, hi)
        if hi < 0:
            return Interval(lo + U64 + 1, hi + U64 + 1)
        return Interval.top()

    def mul(self, other):
        hi = self.hi * other.hi
        if hi <= U64:
            return Interval(self.lo * other.lo, hi)
        return Interval.top()

    def udiv(self, other):
        # BPF runtime semantics: division by zero yields 0, it does not
        # fault — a possibly-zero divisor must keep 0 in the result.
        lo = 0 if other.lo == 0 else self.lo // other.hi
        return Interval(lo, self.hi // max(1, other.lo))

    def umod(self, other):
        if other.lo > 0 and self.hi < other.lo:
            return Interval(self.lo, self.hi)  # dividend smaller than any divisor
        if other.lo > 0:
            return Interval(0, min(self.hi, other.hi - 1))
        return Interval(0, self.hi)  # divisor may be 0: x % 0 = x

    def and_(self, other):
        # a & b <= a and <= b, so the max is bounded by both maxima.
        return Interval(0, min(self.hi, other.hi))

    def or_(self, other):
        # a | b >= max(a, b) and cannot set bits above either operand's.
        return Interval(max(self.lo, other.lo), _ceil_mask(self.hi | other.hi))

    def xor_(self, other):
        return Interval(0, _ceil_mask(self.hi | other.hi))

    # Shifts take the amount as a scalar; the machine uses its low six
    # bits. Only a known amount keeps the range.

    def lsh(self, other):
        shift = other.const_value
        if shift is None or self.hi << (shift & 63) > U64:
            return Interval.top()
        return Interval(self.lo << (shift & 63), self.hi << (shift & 63))

    def rsh(self, other):
        shift = other.const_value
        if shift is None:
            return Interval(0, self.hi)  # shifting right never grows the value
        return Interval(self.lo >> (shift & 63), self.hi >> (shift & 63))

    def arsh(self, other):
        if other.const_value is not None and self.hi < 1 << 63:
            return self.rsh(other)  # signed-non-negative: same as logical shift
        return Interval.top()

    def trunc32(self):
        if self.hi <= U32:
            return self
        if self.lo >> 32 == self.hi >> 32:
            return Interval(self.lo & U32, self.hi & U32)
        return Interval(0, U32)

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __repr__(self):
        return "[{}, {}]".format(self.lo, self.hi)


class RegVal:
    """Abstract value of one register.

    Scalars carry an :class:`Interval`. Pointers carry a constant offset
    ``off`` from the region base (``None`` when unknown, e.g. after a
    join of differing offsets) plus — packet pointers only — an optional
    bounded variable part ``var`` tagged with an identity ``vid``; ``fd``
    is the map file descriptor for map-value pointers.
    """

    __slots__ = ("kind", "off", "val", "fd", "vid", "var")

    def __init__(self, kind, off=None, const=None, fd=None, val=None, vid=None, var=None):
        self.kind = kind
        self.off = off
        self.fd = fd
        self.vid = vid
        self.var = var
        if kind == SCALAR and val is None:
            val = Interval.top() if const is None else Interval.const(const)
        self.val = val if kind == SCALAR else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def uninit(cls):
        return cls(UNINIT)

    @classmethod
    def scalar(cls, const=None):
        return cls(SCALAR, const=const)

    @classmethod
    def scalar_val(cls, val):
        return cls(SCALAR, val=val)

    @classmethod
    def pointer(cls, kind, off=0, fd=None, vid=None, var=None):
        return cls(kind, off=off, fd=fd, vid=vid, var=var)

    # -- predicates --------------------------------------------------------

    @property
    def is_pointer(self):
        return self.kind in _POINTER_KINDS

    @property
    def is_uninit(self):
        return self.kind == UNINIT

    @property
    def const(self):
        """Known integer value, for scalars whose range is a singleton."""
        if self.kind == SCALAR:
            return self.val.const_value
        return None

    # -- lattice -----------------------------------------------------------

    def meet(self, other):
        """Greatest lower bound: keep only facts true on both paths."""
        if self == other:
            return self
        a, b = self.kind, other.kind
        if a == b:
            if a == SCALAR:
                return RegVal.scalar_val(self.val.join(other.val))
            fd = self.fd if self.fd == other.fd else None
            if (
                self.off == other.off
                and self.vid == other.vid
                and (self.var is None) == (other.var is None)
            ):
                var = None
                if self.var is not None:
                    var = self.var.join(other.var)
                return RegVal(a, off=self.off, fd=fd, vid=self.vid, var=var)
            return RegVal(a, off=None, fd=fd)
        # A checked and an unchecked map value meet to the unchecked form.
        if {a, b} == {MAP_VALUE, MAP_VALUE_OR_NULL}:
            off = self.off if self.off == other.off else None
            fd = self.fd if self.fd == other.fd else None
            return RegVal(MAP_VALUE_OR_NULL, off=off, fd=fd)
        return RegVal.uninit()

    def __eq__(self, other):
        return (
            isinstance(other, RegVal)
            and self.kind == other.kind
            and self.off == other.off
            and self.fd == other.fd
            and self.vid == other.vid
            and self.var == other.var
            and self.val == other.val
        )

    def __repr__(self):
        extra = ""
        if self.kind == SCALAR:
            if self.const is not None:
                extra = "={}".format(self.const)
            elif self.val != Interval.top():
                extra = "={!r}".format(self.val)
        elif self.is_pointer or self.kind == MAP_VALUE_OR_NULL:
            extra = "+{}".format(self.off)
            if self.var is not None:
                extra += "+v{}{}".format(self.vid, self.var)
            if self.fd is not None:
                extra += " fd={}".format(self.fd)
        return "<{}{}>".format(self.kind, extra)


class AbsState:
    """Abstract machine state on entry to one instruction."""

    __slots__ = ("regs", "stack_init", "pkt_valid", "pkt_checked")

    def __init__(self, regs=None, stack_init=0, pkt_valid=0, pkt_checked=None):
        if regs is None:
            regs = [RegVal.uninit() for _ in range(11)]
            regs[1] = RegVal.pointer(CTX_PTR, 0)
            regs[10] = RegVal.pointer(STACK_PTR, 0)
        self.regs = regs
        # Bit i set <=> stack byte at r10 - STACK_SIZE + i was written.
        self.stack_init = stack_init
        # Packet bytes [0, pkt_valid) proven accessible on this path.
        self.pkt_valid = pkt_valid
        # vid -> constant byte count proven accessible past that
        # variable-offset pointer's base (branch proofs where the
        # unknown variable part cancels).
        self.pkt_checked = {} if pkt_checked is None else pkt_checked

    def copy(self):
        return AbsState(list(self.regs), self.stack_init, self.pkt_valid, dict(self.pkt_checked))

    def meet(self, other):
        """Join-point combination: the intersection of path facts."""
        checked = {
            vid: min(self.pkt_checked[vid], other.pkt_checked[vid])
            for vid in self.pkt_checked.keys() & other.pkt_checked.keys()
        }
        return AbsState(
            [a.meet(b) for a, b in zip(self.regs, other.regs)],
            self.stack_init & other.stack_init,
            min(self.pkt_valid, other.pkt_valid),
            checked,
        )

    def __eq__(self, other):
        return (
            isinstance(other, AbsState)
            and self.regs == other.regs
            and self.stack_init == other.stack_init
            and self.pkt_valid == other.pkt_valid
            and self.pkt_checked == other.pkt_checked
        )

    def __repr__(self):
        live = {
            "r{}".format(i): reg for i, reg in enumerate(self.regs) if not reg.is_uninit
        }
        return "<AbsState {} pkt_valid={}>".format(live, self.pkt_valid)
