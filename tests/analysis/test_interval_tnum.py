"""Soundness of the scalar abstract domain, one interval (hypothesis).

Every abstract operator must over-approximate the concrete u64
semantics: if concrete values are members of the operand abstractions,
the concrete result must be a member of the abstract result, and join
must include both operands. The ``interval`` properties exercise
:class:`Interval`'s methods; the ``scalar`` ones go through the
verifier's ``_scalar_alu``, in both operand widths, against what
:class:`BpfVm` leaves in the register.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.dataflow import U32, U64, Interval
from repro.analysis.verifier import _SCALAR_OPS, _scalar_alu, refine_scalar
from repro.xdp.asm import assemble
from repro.xdp.vm import _JMP_OPS, BpfVm

u64 = st.integers(min_value=0, max_value=U64)
small_shift = st.integers(min_value=0, max_value=63)


@st.composite
def interval_with_member(draw):
    a, b = draw(u64), draw(u64)
    lo, hi = min(a, b), max(a, b)
    return Interval(lo, hi), draw(st.integers(min_value=lo, max_value=hi))


def vm_alu(op, x, y, alu32):
    """What BpfVm leaves in the destination register."""
    text = "lddw r0, {}\nlddw r2, {}\n{}{} r0, r2\nexit".format(x, y, op, "32" if alu32 else "")
    return BpfVm(assemble(text)).run(bytearray())[0]


# -- lattice ------------------------------------------------------------------


def _within(inner, outer):
    return outer.lo <= inner.lo and inner.hi <= outer.hi


@given(interval_with_member(), interval_with_member())
def test_interval_join_is_upper_bound(a, b):
    joined = a[0].join(b[0])
    assert joined.contains(a[1]) and joined.contains(b[1])


@given(interval_with_member(), interval_with_member())
def test_interval_intersect_keeps_common_members(a, b):
    meet = a[0].intersect(b[0])
    if b[0].contains(a[1]):
        assert meet.contains(a[1])
    if a[0].contains(b[1]):
        assert meet.contains(b[1])


@given(interval_with_member(), interval_with_member())
def test_scalar_join_is_upper_bound(a, b):
    # As RegVal.meet joins two scalars: the join covers both ranges whole.
    joined = a[0].join(b[0])
    assert joined.contains(a[1]) and joined.contains(b[1])
    assert _within(a[0], joined) and _within(b[0], joined)


# -- branch refinement --------------------------------------------------------


@st.composite
def compare_near(draw):
    """An interval, a member (often on or next to an endpoint), and a
    constant on or next to the member or an endpoint — where an
    off-by-one in a refinement shows."""
    interval, x = draw(interval_with_member())
    lo, hi = interval.lo, interval.hi
    x = draw(st.sampled_from([x, lo, min(lo + 1, hi), max(hi - 1, lo), hi]))
    anchor = draw(st.sampled_from([x, lo, hi]))
    return interval, x, (anchor + draw(st.integers(-1, 1))) & U64


@settings(max_examples=500)  # cheap, and the corners are narrow
@given(st.sampled_from(sorted(_JMP_OPS)), compare_near())
def test_refinement_keeps_what_goes_that_way_and_only_that(op, case):
    interval, x, const = case
    taken = _JMP_OPS[op](x, const)
    refined = refine_scalar(interval, op, const, taken)
    assert refined is not None and refined.contains(x)
    assert _within(refined, interval)
    if op in ("jgt", "jge", "jlt", "jle"):
        # Exact: the range left is an interval, so its ends decide it.
        assert _JMP_OPS[op](refined.lo, const) == taken == _JMP_OPS[op](refined.hi, const)
    # The other edge is judged infeasible only when no member takes it.
    if refine_scalar(interval, op, const, not taken) is None:
        assert _JMP_OPS[op](interval.lo, const) == taken == _JMP_OPS[op](interval.hi, const)


# -- arithmetic soundness -----------------------------------------------------


def _signed(x):
    return x - (1 << 64) if x >> 63 else x


# u64 semantics per asm mnemonic, as BpfVm computes them.
_CONCRETE = {
    "add": lambda x, y: (x + y) & U64,
    "sub": lambda x, y: (x - y) & U64,
    "mul": lambda x, y: (x * y) & U64,
    "and": lambda x, y: x & y,
    "or": lambda x, y: x | y,
    "xor": lambda x, y: x ^ y,
    "div": lambda x, y: x // y if y else 0,
    "mod": lambda x, y: x % y if y else x,
    "lsh": lambda x, y: (x << (y & 63)) & U64,
    "rsh": lambda x, y: x >> (y & 63),
    "arsh": lambda x, y: (_signed(x) >> (y & 63)) & U64,
}
_SHIFTS = ("arsh", "lsh", "rsh")
_ARITH = sorted(set(_CONCRETE) - set(_SHIFTS))


@given(st.sampled_from(_ARITH), interval_with_member(), interval_with_member())
def test_interval_binary_ops_sound(op, a, b):
    result = _SCALAR_OPS[op](a[0], b[0])
    assert result.contains(_CONCRETE[op](a[1], b[1]))


_WIDE_DIVISOR = (Interval.const((1 << 32) + 1), (1 << 32) + 1)


@example("div", True, (Interval.const(100), 100), _WIDE_DIVISOR)
@example("mod", True, (Interval.const(100), 100), _WIDE_DIVISOR)
@given(st.sampled_from(_ARITH), st.booleans(), interval_with_member(), interval_with_member())
def test_scalar_binary_ops_sound(op, alu32, a, b):
    if op in ("div", "mod") and b[1] == 0:
        b = (Interval(1, max(1, b[0].hi)), 1)  # the VM faults on a zero divisor
    result = _scalar_alu(op, a[0], b[0], alu32)
    assert result.contains(vm_alu(op, a[1], b[1], alu32))


@given(st.sampled_from(_SHIFTS), interval_with_member(), small_shift)
def test_interval_shifts_sound(op, a, n):
    assert _SCALAR_OPS[op](a[0], Interval.const(n)).contains(_CONCRETE[op](a[1], n))


@given(st.sampled_from(_SHIFTS), st.booleans(), interval_with_member(), interval_with_member())
def test_scalar_const_shifts_sound(op, alu32, a, amount):
    # A known amount and one only known to lie in a range.
    for by in (Interval.const(amount[1]), amount[0]):
        result = _scalar_alu(op, a[0], by, alu32)
        assert result.contains(vm_alu(op, a[1], amount[1], alu32))


@given(interval_with_member())
def test_scalar_trunc32_sound(a):
    assert a[0].trunc32().contains(a[1] & U32)


# -- random straight-line programs vs concrete execution ----------------------


_PROGRAM_OPS = ["add", "and", "lsh", "mul", "or", "rsh", "sub", "xor"]


@st.composite
def straight_line_program(draw):
    length = draw(st.integers(min_value=1, max_value=8))
    ops = []
    for _ in range(length):
        op = draw(st.sampled_from(_PROGRAM_OPS))
        if op in ("lsh", "rsh"):
            ops.append((op, draw(st.integers(min_value=0, max_value=31))))
        else:
            ops.append((op, draw(st.integers(min_value=0, max_value=U64))))
    return ops


@settings(max_examples=200)
@given(straight_line_program(), st.integers(min_value=0, max_value=0xFFFF))
def test_random_program_abstract_covers_concrete(program, start):
    """Run the same op sequence concretely (u64 semantics, as the XDP VM
    computes) and abstractly from ``bounded(0xFFFF)``; the abstract
    result must contain the concrete one at every step."""
    concrete = start
    abstract = Interval.bounded(0xFFFF)
    assert abstract.contains(concrete)
    for op, imm in program:
        concrete = _CONCRETE[op](concrete, imm)
        abstract = _scalar_alu(op, abstract, Interval.const(imm), False)
        assert abstract.contains(concrete)


@settings(max_examples=200)
@given(
    straight_line_program(),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)
def test_random_program_join_of_two_runs_sound(program, start_a, start_b):
    """The join of the entry abstraction must cover both concrete runs —
    the CFG-join situation the verifier's dataflow relies on."""
    abstract = Interval.bounded(0xFFFF)
    results = []
    for start in (start_a, start_b):
        concrete = start
        for op, imm in program:
            concrete = _CONCRETE[op](concrete, imm)
        results.append(concrete)
    for op, imm in program:
        abstract = _scalar_alu(op, abstract, Interval.const(imm), False)
    joined = abstract.join(abstract)
    for concrete in results:
        assert joined.contains(concrete)
