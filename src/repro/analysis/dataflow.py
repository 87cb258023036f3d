"""The abstract domain for the CFG verifier.

Scalars are tracked with a reduced product of two abstractions, the same
pair the kernel eBPF verifier uses:

* an unsigned 64-bit **interval** ``[lo, hi]`` — value-range facts from
  branches and size-bounded loads;
* a **tnum** ("tracked number"): a ``(value, mask)`` pair where mask
  bits are unknown and the rest are known equal to ``value`` — bit-level
  facts from masking and shifting.

The two refine each other after every operation (``ScalarVal.make``), so
``ldxb r5, [r2+14]; and r5, 0x0f; lsh r5, 2`` yields a scalar proven in
``[0, 60]`` with the low two bits known zero — enough to bound a
variable-length IP header offset.

Pointers carry a constant offset plus, for packet pointers, an optional
bounded *variable* part tagged with an id (``vid``). A bounds comparison
against ``data_end`` through one pointer proves access through any other
pointer sharing the same ``vid`` (the unknown variable cancels), which
is how ``pkt + hdr_len + k`` accesses are verified.

``meet`` combines states at control-flow joins and is sound by
construction: a fact holds after the join only if it held on *every*
incoming path. ``widen`` additionally jumps interval endpoints to a
small threshold set so chains of joins converge quickly.
"""

STACK_SIZE = 512

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1

#: A scalar may be folded into a packet pointer's variable part only when
#: its maximum is at most this, so base + variable can never wrap 64 bits
#: (mirrors the kernel's bounded-packet-offset rule).
PKT_VAR_BOUND = 1 << 16

#: Widening thresholds: natural load/mask widths, so widened bounds stay
#: meaningful for bounds checks instead of jumping straight to top.
_WIDEN_HI = (0xFF, 0xFFFF, U32, U64)

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

_ALL_KINDS = frozenset(
    (UNINIT, SCALAR, CTX_PTR, PKT_PTR, PKT_END, STACK_PTR, MAP_VALUE, MAP_VALUE_OR_NULL)
)


def _ceil_mask(x):
    """Smallest all-ones value >= x (0 for 0)."""
    return (1 << x.bit_length()) - 1


class Interval:
    """An unsigned 64-bit value range ``[lo, hi]`` (inclusive)."""

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

    @property
    def is_const(self):
        return self.lo == self.hi

    def contains(self, value):
        return self.lo <= value <= self.hi

    # -- lattice -----------------------------------------------------------

    def join(self, other):
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, other):
        """Accelerated join: endpoints that moved jump to a threshold."""
        lo = self.lo if other.lo >= self.lo else 0
        if other.hi <= self.hi:
            hi = self.hi
        else:
            hi = next(t for t in _WIDEN_HI if t >= other.hi)
        return Interval(lo, hi)

    def intersect(self, other):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def entails(self, other):
        """True when this range is contained in ``other`` (self => other)."""
        return other.lo <= self.lo and self.hi <= other.hi

    def to_jsonable(self):
        return [self.lo, self.hi]

    @classmethod
    def from_jsonable(cls, data):
        lo, hi = data
        return cls(int(lo), int(hi))

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

    def lsh(self, n):
        if self.hi << n <= U64:
            return Interval(self.lo << n, self.hi << n)
        return Interval.top()

    def rsh(self, n):
        return Interval(self.lo >> n, self.hi >> n)

    def arsh(self, n):
        if self.hi < 1 << 63:  # signed-non-negative: same as logical shift
            return self.rsh(n)
        return Interval.top()

    def and_(self, other):
        # a & b <= a and <= b, so the max is bounded by both maxima.
        return Interval(0, min(self.hi, other.hi))

    def or_(self, other):
        # a | b >= max(a, b) and cannot set bits above either operand's.
        return Interval(max(self.lo, other.lo), _ceil_mask(self.hi | other.hi))

    def xor_(self, other):
        return Interval(0, _ceil_mask(self.hi | other.hi))

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __repr__(self):
        return "[{}, {}]".format(self.lo, self.hi)


class Tnum:
    """Known-bits abstraction: mask bits unknown, the rest equal value."""

    __slots__ = ("value", "mask")

    def __init__(self, value, mask):
        if value & mask:
            raise ValueError("tnum value overlaps mask")
        self.value = value & U64
        self.mask = mask & U64

    @classmethod
    def const(cls, value):
        return cls(value & U64, 0)

    @classmethod
    def top(cls):
        return cls(0, U64)

    @classmethod
    def unknown(cls, mask):
        """Low bits under ``mask`` unknown, the rest known zero."""
        return cls(0, mask)

    @property
    def is_const(self):
        return self.mask == 0

    @property
    def min(self):
        return self.value

    @property
    def max(self):
        return self.value | self.mask

    def contains(self, x):
        return (x & ~self.mask) & U64 == self.value

    # -- lattice -----------------------------------------------------------

    def join(self, other):
        mu = self.mask | other.mask | (self.value ^ other.value)
        return Tnum(self.value & other.value & ~mu, mu)

    def intersect(self, other):
        """Combine known bits from both; None when they contradict."""
        known = ~self.mask & ~other.mask & U64
        if (self.value ^ other.value) & known:
            return None
        mask = self.mask & other.mask
        return Tnum((self.value | other.value) & ~mask & U64, mask)

    def entails(self, other):
        """True when every value this tnum admits, ``other`` admits too:
        each bit ``other`` knows, we know as well, with the same value."""
        if ~other.mask & self.mask & U64:
            return False  # other claims a bit we leave unknown
        return (self.value ^ other.value) & ~other.mask & U64 == 0

    def to_jsonable(self):
        return [self.value, self.mask]

    @classmethod
    def from_jsonable(cls, data):
        value, mask = data
        return cls(int(value), int(mask))

    # -- transfer (the kernel tnum_* algebra, masked to 64 bits) -----------

    def add(self, other):
        sm = self.mask + other.mask
        sv = self.value + other.value
        sigma = sm + sv
        chi = sigma ^ sv
        mu = (chi | self.mask | other.mask) & U64
        return Tnum(sv & ~mu & U64, mu)

    def sub(self, other):
        dv = self.value - other.value
        alpha = dv + self.mask
        beta = dv - other.mask
        chi = alpha ^ beta
        mu = (chi | self.mask | other.mask) & U64
        return Tnum(dv & ~mu & U64, mu)

    def and_(self, other):
        alpha = self.value | self.mask
        beta = other.value | other.mask
        v = self.value & other.value
        return Tnum(v, alpha & beta & ~v & U64)

    def or_(self, other):
        v = self.value | other.value
        mu = self.mask | other.mask
        return Tnum(v, mu & ~v & U64)

    def xor_(self, other):
        v = self.value ^ other.value
        mu = self.mask | other.mask
        return Tnum(v & ~mu & U64, mu)

    def mul(self, other):
        if self.is_const and other.is_const:
            return Tnum.const(self.value * other.value)
        if (self.is_const and self.value == 0) or (other.is_const and other.value == 0):
            return Tnum.const(0)
        return Tnum.top()

    def lsh(self, n):
        return Tnum((self.value << n) & U64 & ~((self.mask << n) & U64), (self.mask << n) & U64)

    def rsh(self, n):
        return Tnum(self.value >> n, self.mask >> n)

    def trunc(self, bits):
        m = (1 << bits) - 1
        return Tnum(self.value & m, self.mask & m)

    def __eq__(self, other):
        return isinstance(other, Tnum) and self.value == other.value and self.mask == other.mask

    def __repr__(self):
        if self.is_const:
            return "tnum({:#x})".format(self.value)
        return "tnum(v={:#x}, m={:#x})".format(self.value, self.mask)


class ScalarVal:
    """Reduced product of an interval and a tnum for one scalar."""

    __slots__ = ("interval", "tnum")

    def __init__(self, interval, tnum):
        self.interval = interval
        self.tnum = tnum

    @classmethod
    def make(cls, interval, tnum):
        """Construct with mutual reduction of the two components."""
        lo = max(interval.lo, tnum.min)
        hi = min(interval.hi, tnum.max)
        if lo > hi:
            # The components contradict (an infeasible path the caller
            # chose not to prune); trust the tnum.
            lo, hi = tnum.min, tnum.max
        if lo == hi:
            tnum = Tnum.const(lo)
        return cls(Interval(lo, hi), tnum)

    @classmethod
    def const(cls, value):
        value &= U64
        return cls(Interval.const(value), Tnum.const(value))

    @classmethod
    def top(cls):
        return cls(Interval.top(), Tnum.top())

    @classmethod
    def bounded(cls, hi_mask):
        """Unknown value within ``[0, hi_mask]`` with high bits known 0."""
        return cls(Interval(0, hi_mask), Tnum.unknown(hi_mask))

    @property
    def const_value(self):
        return self.interval.lo if self.interval.is_const else None

    @property
    def lo(self):
        return self.interval.lo

    @property
    def hi(self):
        return self.interval.hi

    def contains(self, x):
        return self.interval.contains(x) and self.tnum.contains(x)

    # -- lattice -----------------------------------------------------------

    def join(self, other):
        return ScalarVal.make(self.interval.join(other.interval), self.tnum.join(other.tnum))

    def widen(self, other):
        return ScalarVal.make(self.interval.widen(other.interval), self.tnum.join(other.tnum))

    def entails(self, other):
        """self => other: every admitted value of self is admitted by other."""
        return self.interval.entails(other.interval) and self.tnum.entails(other.tnum)

    def to_jsonable(self):
        return {"i": self.interval.to_jsonable(), "t": self.tnum.to_jsonable()}

    @classmethod
    def from_jsonable(cls, data):
        # Deliberately not ``make``: the certificate must round-trip
        # exactly; reduction happened when the value was first built.
        return cls(Interval.from_jsonable(data["i"]), Tnum.from_jsonable(data["t"]))

    # -- transfer ----------------------------------------------------------

    def add(self, other):
        return ScalarVal.make(self.interval.add(other.interval), self.tnum.add(other.tnum))

    def sub(self, other):
        return ScalarVal.make(self.interval.sub(other.interval), self.tnum.sub(other.tnum))

    def mul(self, other):
        return ScalarVal.make(self.interval.mul(other.interval), self.tnum.mul(other.tnum))

    def udiv(self, other):
        return ScalarVal.make(self.interval.udiv(other.interval), Tnum.top())

    def umod(self, other):
        return ScalarVal.make(self.interval.umod(other.interval), Tnum.top())

    def and_(self, other):
        return ScalarVal.make(self.interval.and_(other.interval), self.tnum.and_(other.tnum))

    def or_(self, other):
        return ScalarVal.make(self.interval.or_(other.interval), self.tnum.or_(other.tnum))

    def xor_(self, other):
        return ScalarVal.make(self.interval.xor_(other.interval), self.tnum.xor_(other.tnum))

    def lsh(self, other):
        shift = other.const_value
        if shift is None:
            return ScalarVal.top()
        shift &= 63
        return ScalarVal.make(self.interval.lsh(shift), self.tnum.lsh(shift))

    def rsh(self, other):
        shift = other.const_value
        if shift is None:
            # Shifting right never grows the value.
            return ScalarVal.make(Interval(0, self.interval.hi), Tnum.top())
        shift &= 63
        return ScalarVal.make(self.interval.rsh(shift), self.tnum.rsh(shift))

    def arsh(self, other):
        shift = other.const_value
        if shift is None:
            return ScalarVal.top()
        shift &= 63
        return ScalarVal.make(self.interval.arsh(shift), Tnum.top())

    def neg(self):
        value = self.const_value
        if value is not None:
            return ScalarVal.const(-value)
        return ScalarVal.top()

    def trunc32(self):
        interval = self.interval
        if interval.hi <= U32:
            truncated = interval
        elif interval.lo >> 32 == interval.hi >> 32:
            truncated = Interval(interval.lo & U32, interval.hi & U32)
        else:
            truncated = Interval(0, U32)
        return ScalarVal.make(truncated, self.tnum.trunc(32))

    def __eq__(self, other):
        return (
            isinstance(other, ScalarVal)
            and self.interval == other.interval
            and self.tnum == other.tnum
        )

    def __repr__(self):
        if self.interval.is_const:
            return "scalar({})".format(self.interval.lo)
        return "scalar({}, {})".format(self.interval, self.tnum)


_SCALAR_TOP = None


def _scalar_top():
    global _SCALAR_TOP
    if _SCALAR_TOP is None:
        _SCALAR_TOP = ScalarVal.top()
    return _SCALAR_TOP


class RegVal:
    """Abstract value of one register.

    Scalars carry a :class:`ScalarVal`. Pointers carry a constant offset
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
            val = ScalarVal.const(const) if const is not None else _scalar_top()
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

    def _combine(self, other, scalar_op):
        if self == other:
            return self
        a, b = self.kind, other.kind
        if a == b:
            if a == SCALAR:
                return RegVal.scalar_val(scalar_op(self.val, other.val))
            fd = self.fd if self.fd == other.fd else None
            if (
                self.off == other.off
                and self.vid == other.vid
                and (self.var is None) == (other.var is None)
            ):
                var = None
                if self.var is not None:
                    var = scalar_op(self.var, other.var)
                return RegVal(a, off=self.off, fd=fd, vid=self.vid, var=var)
            return RegVal(a, off=None, fd=fd)
        # A checked and an unchecked map value meet to the unchecked form.
        if {a, b} == {MAP_VALUE, MAP_VALUE_OR_NULL}:
            off = self.off if self.off == other.off else None
            fd = self.fd if self.fd == other.fd else None
            return RegVal(MAP_VALUE_OR_NULL, off=off, fd=fd)
        return RegVal.uninit()

    def meet(self, other):
        """Greatest lower bound: keep only facts true on both paths."""
        return self._combine(other, lambda a, b: a.join(b))

    def widen(self, other):
        """Join with interval endpoints jumped to thresholds."""
        return self._combine(other, lambda a, b: a.widen(b))

    def entails(self, other):
        """self => other: ``other`` is a weaker-or-equal description.

        ``UNINIT`` is the weakest claim (no fact at all), so anything
        entails it; conversely an uninit value entails only uninit.
        Pointer claims are exact on kind/offset/vid (the facts bounds
        checks consume) and interval-ordered on the variable part.
        """
        if other.kind == UNINIT:
            return True
        if self.kind != other.kind:
            # A known-non-null map value is a strengthening of the
            # maybe-null lookup result.
            if not (self.kind == MAP_VALUE and other.kind == MAP_VALUE_OR_NULL):
                return False
        if self.kind == SCALAR:
            return self.val.entails(other.val)
        if other.fd is not None and self.fd != other.fd:
            return False
        if other.off is None:
            return True  # "somewhere in the region": weakest pointer claim
        if self.off != other.off:
            return False
        if other.var is None:
            return self.var is None
        if self.var is None or self.vid != other.vid:
            return False
        return self.var.entails(other.var)

    def to_jsonable(self):
        if self.kind == UNINIT:
            return {"k": UNINIT}
        if self.kind == SCALAR:
            return {"k": SCALAR, "v": self.val.to_jsonable()}
        data = {"k": self.kind, "off": self.off}
        if self.fd is not None:
            data["fd"] = self.fd
        if self.var is not None:
            data["vid"] = self.vid
            data["var"] = self.var.to_jsonable()
        return data

    @classmethod
    def from_jsonable(cls, data):
        kind = data["k"]
        if kind not in _ALL_KINDS:
            raise ValueError("unknown register kind {!r}".format(kind))
        if kind == UNINIT:
            return cls.uninit()
        if kind == SCALAR:
            return cls.scalar_val(ScalarVal.from_jsonable(data["v"]))
        off = data.get("off")
        var = data.get("var")
        return cls(
            kind,
            off=None if off is None else int(off),
            fd=data.get("fd"),
            vid=data.get("vid"),
            var=None if var is None else ScalarVal.from_jsonable(var),
        )

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
            elif self.val is not None and self.val != _scalar_top():
                extra = "={!r}".format(self.val)
        elif self.is_pointer or self.kind == MAP_VALUE_OR_NULL:
            extra = "+{}".format(self.off)
            if self.var is not None:
                extra += "+v{}{}".format(self.vid, self.var.interval)
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

    def _combine(self, other, combine_reg):
        checked = {
            vid: min(self.pkt_checked[vid], other.pkt_checked[vid])
            for vid in self.pkt_checked.keys() & other.pkt_checked.keys()
        }
        return AbsState(
            [combine_reg(a, b) for a, b in zip(self.regs, other.regs)],
            self.stack_init & other.stack_init,
            min(self.pkt_valid, other.pkt_valid),
            checked,
        )

    def meet(self, other):
        """Join-point combination: the intersection of path facts."""
        return self._combine(other, lambda a, b: a.meet(b))

    def widen(self, other):
        return self._combine(other, lambda a, b: a.widen(b))

    def entails(self, other):
        """self => other: every concrete state self admits, other admits.

        The certificate checker's ordering test: a transfer output
        entails the certified invariant at its successor exactly when
        the invariant is a sound (weaker-or-equal) description of every
        state flowing along that edge.
        """
        for mine, claimed in zip(self.regs, other.regs):
            if not mine.entails(claimed):
                return False
        # Claimed-initialized stack bytes must be initialized here too.
        if other.stack_init & ~self.stack_init:
            return False
        if other.pkt_valid > self.pkt_valid:
            return False
        for vid, claimed in other.pkt_checked.items():
            mine = self.pkt_checked.get(vid)
            if mine is None or mine < claimed:
                return False
        return True

    def to_jsonable(self):
        return {
            "regs": [reg.to_jsonable() for reg in self.regs],
            # stack_init is a 512-bit bitmap; hex keeps the JSON compact.
            "stack_init": "{:x}".format(self.stack_init),
            "pkt_valid": self.pkt_valid,
            "pkt_checked": {str(vid): n for vid, n in self.pkt_checked.items()},
        }

    @classmethod
    def from_jsonable(cls, data):
        regs = [RegVal.from_jsonable(reg) for reg in data["regs"]]
        if len(regs) != 11:
            raise ValueError("state must describe 11 registers")
        return cls(
            regs,
            stack_init=int(data.get("stack_init", "0"), 16),
            pkt_valid=int(data.get("pkt_valid", 0)),
            pkt_checked={int(vid): int(n) for vid, n in data.get("pkt_checked", {}).items()},
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
