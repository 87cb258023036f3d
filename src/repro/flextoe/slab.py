"""Array-of-struct slab storage for per-connection state.

FlexTOE's premise is that data-path connection state is *small and
flat* — Table 5 packs a connection into 108 bytes precisely so a million
of them fit in NIC memory. The original Python model stored each
partition as a heap object (hundreds of bytes of CPython overhead per
connection), which made per-connection cost objects, not bytes. This
module provides the storage layer that restores the paper's O(bytes)
footprint: preallocated column arrays ("slabs") indexed by slot id, with
thin *flyweight* views exposing the exact attribute API the stages, the
sanitizer and the stagelint write-set analysis already use.

Layout
------

A :class:`Slab` is a structure-of-arrays pool. Every declared field is
one column:

* ``INT`` — an ``array('q')`` of signed 64-bit values. Two sentinel
  encodings keep the column total: ``None`` is stored as a reserved
  sentinel, and rare non-integer values (tests pass MAC bytes / dotted
  IP strings) spill into a per-column overflow dict keyed by slot.
  Inline integers must sit above ``_SENT_FLOOR``; anything else spills.
* ``FLAG`` — an ``array('b')`` column read back as real ``bool``.
* ``U8`` / ``U16`` — ``array('B')`` / ``array('H')`` narrow unsigned
  columns for ports, flow groups and small saturating counters. No
  sentinels and no overflow: the declared range *is* the invariant
  (Table 5 stores these as 1–2 hardware bytes), so an out-of-range
  write raises immediately instead of silently widening.
* ``OBJ`` — a plain list column for reference fields (host memory
  regions, opaque app handles, snapshot dicts).

Scalar columns support zero-copy inspection via :meth:`Slab.column_view`
(a ``memoryview``), which the property tests use to check that freed
slots are fully zeroed before reuse.

Row operations
--------------

How a value of each kind is stored is stated once, as source text
(``_STORE``), and compiled wherever a store happens: one setter per
generated property, one ``write(slot, *values)`` per
:meth:`Slab.row_writer` — a connection is installed as one row write,
not one descriptor call per field — and the row zeroer :meth:`Slab.free`
runs. A slot handed out by :meth:`Slab.alloc` is all-zero, so an install
writes only the fields that start elsewhere.

Flyweights
----------

A :class:`SlabView` subclass declares its fields in a class-level
``SLAB_FIELDS`` tuple (statically parseable, like ``__slots__`` —
``repro.analysis.stagelint`` reads it for partition ownership) and gets
one generated ``property`` per field via :func:`attach_fields`. The
accessors are bound to the column objects themselves (columns grow in
place, so identity is stable), making an attribute
access one bound-method call plus one array index.

Because fields are plain data descriptors, attribute *writes* still
dispatch through ``cls.__setattr__`` -> ``object.__setattr__`` ->
``property.__set__`` — the race sanitizer's ``__setattr__``
instrumentation keeps working unchanged, and
``cls.__setattr__ is object.__setattr__`` stays true when it is not
installed.

Ownership: a view constructed normally allocates its own slot and frees
it when garbage collected; :meth:`SlabView.view` binds a borrowing view
onto an existing slot (the three partitions of one
:class:`~repro.flextoe.state.ConnectionRecord` share the record's
slot). Slot reclamation rides CPython's deterministic refcounting, so
slab allocation order — and therefore every simulation that touches it —
stays reproducible.
"""

from array import array
from itertools import count
from textwrap import indent

INT = "int"
FLAG = "flag"
U8 = "u8"
U16 = "u16"
OBJ = "obj"

#: array typecode per scalar kind (OBJ columns are plain lists).
_TYPECODES = {INT: "q", FLAG: "b", U8: "B", U16: "H"}

#: storage bytes per slot for one column of each kind. OBJ is charged
#: one machine word (the CPython list cell), matching what a hardware
#: layout would spend on a handle.
_KIND_BYTES = {INT: 8, FLAG: 1, U8: 1, U16: 2, OBJ: 8}

#: Inline int values must be strictly above this floor; the space below
#: is reserved for sentinels. (No protocol field comes near -2**60.)
_SENT_FLOOR = -(1 << 60)
_NONE = -(1 << 62)  # field holds None
_SPILL = -(1 << 62) + 1  # value lives in the column's overflow dict
_INLINE_MAX = (1 << 63) - 1  # top of array('q') range

#: Growth step (slots) once the initial preallocation is full. Linear,
#: not geometric: doubling a million-connection pool would strand up to
#: half the columns as dead capacity, and appending to an ``array`` is
#: amortized O(1) per slot either way. Worst-case slack is one chunk.
_GROW_STEP = 4096

#: The one statement of each kind's encoding, as source over four names:
#: ``{c}`` the column, ``{o}`` its overflow dict (INT only), ``{i}`` the
#: slot and ``{v}`` the value. Property accessors, row writers and the
#: row zeroer are all compiled from these (``Slab._compile``).
_STORE = {
    INT: """\
if {v} is None:
    {c}[{i}] = _NONE
    if {o}:
        {o}.pop({i}, None)
elif type({v}) is int and _SENT_FLOOR < {v} <= _INLINE_MAX:
    {c}[{i}] = {v}
    if {o}:
        {o}.pop({i}, None)
else:
    # Rare: non-int identity values (MAC bytes, dotted-quad strings)
    # or out-of-range ints spill out of the column.
    {c}[{i}] = _SPILL
    {o}[{i}] = {v}
""",
    FLAG: "{c}[{i}] = 1 if {v} else 0\n",
    OBJ: "{c}[{i}] = {v}\n",
}
# The array enforces the declared range; surface the field name because
# the OverflowError alone only mentions the typecode.
_STORE[U8] = _STORE[U16] = """\
try:
    {c}[{i}] = {v}
except (OverflowError, TypeError) as exc:
    raise type(exc)("{name}: {{}}".format(exc)) from None
"""
_LOAD = {
    INT: """\
value = {c}[{i}]
if value > _SENT_FLOOR:
    return value
return None if value == _NONE else {o}[{i}]
""",
    FLAG: "return {c}[{i}] != 0\n",
    **dict.fromkeys((U8, U16, OBJ), "return {c}[{i}]\n"),
}
_ZERO = {
    INT: "{c}[{i}] = 0\nif {o}:\n    {o}.pop({i}, None)\n",
    OBJ: "{c}[{i}] = None\n",
    **dict.fromkeys((FLAG, U8, U16), "{c}[{i}] = 0\n"),
}
_SENTINELS = {"_NONE": _NONE, "_SPILL": _SPILL, "_SENT_FLOOR": _SENT_FLOOR, "_INLINE_MAX": _INLINE_MAX}
#: Generated code is compiled under this file's name, so profilers charge
#: it to this module, at line numbers past the file's end, so a traceback
#: or a line tracer cannot mistake it for the text above — each function
#: at its own, because profilers key a function by (file, first line, name).
_GENERATED_LINES = count(100_000, 1000)


class Slab:
    """A preallocated array-of-struct pool indexed by slot id."""

    __slots__ = (
        "name",
        "fields",
        "kinds",
        "capacity",
        "live",
        "high_water",
        "columns",
        "overflow",
        "on_alloc",
        "on_free",
        "_free",
        "_next",
        "_names",
        "_zero",
    )

    def __init__(self, fields, initial=1024, name="slab"):
        self.name = name
        self.fields = tuple(fields)  # (field_name, kind) pairs
        self.kinds = {}
        for field_name, kind in self.fields:
            if field_name in self.kinds:
                raise ValueError("duplicate slab field {!r}".format(field_name))
            if kind not in _KIND_BYTES:
                raise ValueError("unknown slab kind {!r}".format(kind))
            self.kinds[field_name] = kind
        self.capacity = 0
        self.live = 0
        self.high_water = 0
        self.columns = {}
        self.overflow = {}  # INT columns only: slot -> spilled value
        self._free = []  # LIFO, so slot reuse is deterministic
        self._next = 0
        # Optional observers called with the slot id: on_free on every
        # free() — the race sanitizer drops ownership registrations
        # before the slot can be recycled for an unrelated connection —
        # and on_alloc on every alloc(), where it asserts the slot is
        # the all-zero row installs rely on.
        self.on_alloc = None
        self.on_free = None
        # Globals of every function compiled for this slab: the sentinels,
        # each column as c_<field>, each overflow dict as o_<field>.
        self._names = dict(_SENTINELS)
        for field_name, kind in self.fields:
            column = self.columns[field_name] = [] if kind == OBJ else array(_TYPECODES[kind])
            self._names["c_" + field_name] = column
            if kind == INT:
                self._names["o_" + field_name] = self.overflow[field_name] = {}
        self._zero = self._compile("zero(slot)", "slot", _ZERO, [(name, None) for name in self.kinds])
        self._grow(max(1, initial))

    def _compile(self, signature, slot, templates, stores):
        """Compile ``def <signature>`` whose body is, per ``(field name,
        value expression)`` in ``stores``, the field's kind's template
        written over its column, its overflow dict and the slot
        expression ``slot``."""
        body = "".join(
            templates[self.kinds[field_name]].format(
                c="c_" + field_name, o="o_" + field_name, i=slot, v=value, name=field_name
            )
            for field_name, value in stores
        )
        exec(compile("def {}:\n{}".format(signature, indent(body or "pass\n", "    ")), __file__, "exec"), self._names)
        function = self._names.pop(signature.partition("(")[0])
        function.__code__ = function.__code__.replace(co_firstlineno=next(_GENERATED_LINES))
        return function

    def row_writer(self, names):
        """Compile ``write(slot, *values)``, one value per name in
        ``names``: each lands exactly where the field's property setter
        would put it, in one call."""
        values = ["v%d" % n for n in range(len(names))]
        signature = "write({})".format(", ".join(["slot"] + values))
        return self._compile(signature, "slot", _STORE, list(zip(names, values)))

    def _grow(self, count):
        for column in self.columns.values():
            if isinstance(column, list):
                column.extend([None] * count)
            else:  # zero bytes are zero in every scalar typecode
                column.frombytes(bytes(count * column.itemsize))
        self.capacity += count

    def alloc(self):
        """Claim a zeroed slot; grows the pool when exhausted."""
        if self._free:
            slot = self._free.pop()
        else:
            if self._next >= self.capacity:
                self._grow(_GROW_STEP)
            slot = self._next
            self._next += 1
        if self.on_alloc is not None:
            self.on_alloc(slot)
        self.live += 1
        if self.live > self.high_water:
            self.high_water = self.live
        return slot

    def free(self, slot):
        """Release ``slot``, zeroing every column so reuse starts clean."""
        self._zero(slot)
        self.live -= 1
        self._free.append(slot)
        if self.on_free is not None:
            self.on_free(slot)

    def dirty_fields(self, slot):
        """The columns in which ``slot`` is not the zero alloc() promises."""
        return [
            field_name
            for field_name, kind in self.fields
            if self.columns[field_name][slot] != (None if kind == OBJ else 0)
            or slot in self.overflow.get(field_name, ())
        ]

    def column_view(self, field_name):
        """Zero-copy ``memoryview`` of a scalar (INT/FLAG) column."""
        column = self.columns[field_name]
        if isinstance(column, list):
            raise TypeError("{}: OBJ columns have no buffer".format(field_name))
        return memoryview(column)

    def bytes_per_slot(self):
        """Storage cost of one slot across all columns."""
        return sum(_KIND_BYTES[kind] for _name, kind in self.fields)

    def stats(self):
        return {
            "name": self.name,
            "capacity": self.capacity,
            "live": self.live,
            "high_water": self.high_water,
            "bytes_per_slot": self.bytes_per_slot(),
            "overflow_entries": sum(len(ovf) for ovf in self.overflow.values()),
        }


class SlabView:
    """Flyweight over one slab slot; subclasses declare ``SLAB_FIELDS``."""

    __slots__ = ("_i", "_own")

    #: Set by attach_fields().
    SLAB = None
    SLAB_FIELDS = ()

    def _bind(self, slot=None):
        """Attach to ``slot``, or allocate (and own) a fresh one."""
        if slot is None:
            self._i = type(self).SLAB.alloc()
            self._own = True
        else:
            self._i = slot
            self._own = False

    @classmethod
    def view(cls, slot):
        """A borrowing view of an existing slot (no init, no ownership)."""
        self = cls.__new__(cls)
        self._i = slot
        self._own = False
        return self

    @property
    def slab_slot(self):
        return self._i

    def __del__(self):
        try:
            if self._own:
                type(self).SLAB.free(self._i)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def attach_fields(cls, slab):
    """Install slab-backed properties for ``cls.SLAB_FIELDS`` on ``cls``.

    The generated accessors are bound to the column objects, so they must
    be attached against the slab instance the class will live on.
    """
    cls.SLAB = slab
    for field_name in cls.SLAB_FIELDS:
        fget = slab._compile("fget(self)", "self._i", _LOAD, [(field_name, None)])
        fset = slab._compile("fset(self, value)", "self._i", _STORE, [(field_name, "value")])
        setattr(cls, field_name, property(fget, fset))
    return cls
