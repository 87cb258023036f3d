"""Property-based tests of the slab storage layer.

The slab is the foundation under every connection's state (and the
host-side shadows), so its invariants are checked against a pure-Python
model under randomized alloc/free/write/read interleavings:

* no aliasing: writes through one live view never show through another;
* flyweight reads always equal the model (a dict per live slot);
* freed slots are fully zeroed — scalar columns via the raw
  ``column_view`` buffer, OBJ columns by direct inspection — before
  any reuse can observe stale state.
"""

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flextoe import slab as slab_module
from repro.flextoe.slab import FLAG, INT, OBJ, U8, U16, U32, Slab, SlabView, attach_fields

FIELDS = (
    ("alpha", INT),
    ("beta", INT),
    ("gamma", FLAG),
    ("delta", OBJ),
    ("eps", U8),
    ("zeta", U16),
    ("theta", U32),
)
FIELD_NAMES = tuple(name for name, _ in FIELDS)

#: Values exercising both INT encodings: inline ints and None (sentinel).
INT_VALUES = st.one_of(st.integers(min_value=-(1 << 40), max_value=(1 << 40)), st.none())
FLAG_VALUES = st.booleans()
OBJ_VALUES = st.one_of(st.none(), st.text(max_size=4), st.tuples(st.integers()))
U8_VALUES = st.integers(min_value=0, max_value=255)
U16_VALUES = st.integers(min_value=0, max_value=0xFFFF)
U32_VALUES = st.integers(min_value=0, max_value=0xFFFFFFFF)


def make_slab_and_cls(initial=4):
    slab = Slab(fields=FIELDS, initial=initial, name="prop")

    class View(SlabView):
        __slots__ = ()
        SLAB_FIELDS = FIELD_NAMES

    attach_fields(View, slab)
    return slab, View


def value_for(field, data):
    if field == "gamma":
        return data.draw(FLAG_VALUES)
    if field == "delta":
        return data.draw(OBJ_VALUES)
    if field == "eps":
        return data.draw(U8_VALUES)
    if field == "zeta":
        return data.draw(U16_VALUES)
    if field == "theta":
        return data.draw(U32_VALUES)
    return data.draw(INT_VALUES)


def normalize(field, value):
    """What a read should produce after writing ``value``."""
    if field == "gamma":
        return bool(value)
    return value


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_alloc_free_matches_model(data):
    """Interleaved alloc/free/write with a dict-per-slot model oracle."""
    slab, View = make_slab_and_cls()
    live = {}  # handle -> (view, model dict)
    next_handle = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        ops = ["alloc"]
        if live:
            ops += ["write", "free", "check"]
        op = data.draw(st.sampled_from(ops))
        if op == "alloc":
            view = View()
            view._bind()
            # Model of a fresh slot: scalar columns zero, FLAG False,
            # OBJ None.
            live[next_handle] = (
                view,
                {name: (False if kind == FLAG else (None if kind == OBJ else 0)) for name, kind in FIELDS},
            )
            next_handle += 1
        elif op == "write":
            handle = data.draw(st.sampled_from(sorted(live)))
            view, model = live[handle]
            field = data.draw(st.sampled_from(FIELD_NAMES))
            value = value_for(field, data)
            setattr(view, field, value)
            model[field] = normalize(field, value)
        elif op == "free":
            handle = data.draw(st.sampled_from(sorted(live)))
            view, _ = live.pop(handle)
            slab.free(view.slab_slot)
            view._own = False  # slot returned; defuse the destructor
        else:  # check every live view against its model
            for view, model in live.values():
                for field in FIELD_NAMES:
                    assert getattr(view, field) == model[field]
        # Aliasing invariant: distinct live handles sit on distinct slots.
        slots = [view.slab_slot for view, _ in live.values()]
        assert len(slots) == len(set(slots))
    for view, model in live.values():
        for field in FIELD_NAMES:
            assert getattr(view, field) == model[field]
    assert slab.live == len(live)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_writes_never_alias_across_live_slots(data):
    """Writing one slot leaves every other live slot's fields intact."""
    slab, View = make_slab_and_cls()
    views = []
    for i in range(data.draw(st.integers(min_value=2, max_value=10))):
        view = View()
        view._bind()
        view.alpha = 1000 + i
        view.beta = -i
        view.gamma = bool(i % 2)
        view.delta = ("slot", i)
        views.append(view)
    victim = data.draw(st.integers(min_value=0, max_value=len(views) - 1))
    view = views[victim]
    view.alpha = data.draw(st.integers(min_value=slab_module._SENT_FLOOR + 1, max_value=slab_module._INLINE_MAX))
    view.gamma = data.draw(st.booleans())
    view.delta = "overwritten"
    for i, other in enumerate(views):
        if i == victim:
            continue
        assert other.alpha == 1000 + i
        assert other.beta == -i
        assert other.gamma == bool(i % 2)
        assert other.delta == ("slot", i)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_freed_slots_are_fully_zeroed(data):
    """After free(), the slot's scalar cells read 0 through the raw
    column buffer and OBJ cells are None."""
    slab, View = make_slab_and_cls()
    views = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        view = View()
        view._bind()
        for field in FIELD_NAMES:
            setattr(view, field, value_for(field, data))
        views.append(view)
    freed_slots = []
    for view in views:
        freed_slots.append(view.slab_slot)
        slab.free(view.slab_slot)
        view._own = False
    for slot in freed_slots:
        for name, kind in FIELDS:
            if kind == OBJ:
                assert slab.columns[name][slot] is None
            else:
                assert slab.column_view(name)[slot] == 0
    # Reuse starts from the zeroed state: a fresh view on a recycled
    # slot observes defaults, not the prior tenant's values.
    fresh = View()
    fresh._bind()
    assert fresh.slab_slot in freed_slots  # LIFO free list recycles
    assert fresh.alpha == 0 and fresh.beta == 0
    assert fresh.gamma is False and fresh.delta is None


def test_slab_rejects_bad_declarations():
    import pytest

    with pytest.raises(ValueError):
        Slab(fields=[("x", INT), ("x", FLAG)])
    with pytest.raises(ValueError):
        Slab(fields=[("x", "float")])
    slab = Slab(fields=[("x", INT), ("o", OBJ)])
    with pytest.raises(TypeError):
        slab.column_view("o")


def test_linear_growth_and_stats():
    slab, View = make_slab_and_cls(initial=2)
    views = []
    for _ in range(5):  # force growth past the initial capacity
        view = View()
        view._bind()
        views.append(view)
    stats = slab.stats()
    assert stats["live"] == 5
    assert stats["high_water"] == 5
    # INT + INT + FLAG + OBJ + U8 + U16 + U32 = 8 + 8 + 1 + 8 + 1 + 2 + 4.
    assert stats["bytes_per_slot"] == 32
    assert slab.capacity >= 5


def test_freed_slots_are_reused_last_in_first_out():
    # Slot numbers reach no simulated quantity, but reuse order keeps a
    # run's slab layout (and a sanitized run's dirty-slot report)
    # reproducible: the free stack hands back the most recent free first.
    slab = Slab(fields=[("x", U32)], initial=2)
    slots = [slab.alloc() for _ in range(6)]
    assert slots == list(range(6))
    for slot in (4, 1, 5, 2):
        slab.free(slot)
    assert [slab.alloc() for _ in range(5)] == [2, 5, 1, 4, 6]
    slab.free(3)
    slab.free(0)
    assert slab.alloc() == 0 and slab.alloc() == 3
    assert (slab.live, slab.high_water) == (7, 7)


def test_narrow_columns_enforce_their_range():
    import pytest

    slab, View = make_slab_and_cls()
    view = View()
    view._bind()
    view.eps = 255
    view.zeta = 0xFFFF
    view.theta = 0xFFFFFFFF
    assert view.eps == 255 and view.zeta == 0xFFFF and view.theta == 0xFFFFFFFF
    with pytest.raises(OverflowError, match="eps"):
        view.eps = 256
    with pytest.raises(OverflowError, match="zeta"):
        view.zeta = -1
    with pytest.raises(TypeError, match="eps"):
        view.eps = None
    # A U32 never wraps: out of range or not an int raises, by property
    # or by row writer.
    write = slab.row_writer(("theta",))
    for bad, error in ((-1, OverflowError), (1 << 32, OverflowError), (1.5, TypeError), ("7", TypeError)):
        for store in (lambda: setattr(view, "theta", bad), lambda: write(view.slab_slot, bad)):
            with pytest.raises(error, match="^theta: "):
                store()
    # Failed writes leave the cell unchanged.
    assert view.eps == 255 and view.zeta == 0xFFFF and view.theta == 0xFFFFFFFF


def test_connection_state_uses_narrow_columns():
    from repro.control.recovery import SHADOW_SLAB
    from repro.flextoe.state import CONN_SLAB

    kinds = dict(CONN_SLAB.fields)
    assert kinds["local_port"] == U16 and kinds["remote_port"] == U16
    assert kinds["dupack_cnt"] == U8 and kinds["cnt_fretx"] == U8 and kinds["delack_cnt"] == U8
    assert kinds["seq"] == U32 and kinds["ack"] == U32 and kinds["rtt_est"] == U32
    assert kinds["fin_pending"] == FLAG
    assert kinds["peer_ip"] == U32
    # 10 INT + 14 U32 + 2 FLAG + 3 U16 + 3 U8 + 3 OBJ columns: 280 B at
    # a uniform 8 B, 171 at Table 5's widths. The gap to the paper's
    # 108 B/conn is the INT columns — 64-bit buffer heads and addresses,
    # the peer's 48-bit MAC, fields that may be None —
    # and the three 8 B OBJ handles. The host's MAC and IP are the
    # connection table's, in no row (they were 191 B with them).
    assert CONN_SLAB.bytes_per_slot() == 171
    assert CONN_SLAB.bytes_per_slot() < 8 * len(CONN_SLAB.fields)
    assert "local_mac" not in kinds and "local_ip" not in kinds
    shadow = dict(SHADOW_SLAB.fields)
    assert shadow["snd_iss"] == U32 and shadow["remote_ip"] == U32 and shadow["local_port"] == U16
    assert not {"index", "local_mac", "local_ip"} & set(shadow)
    # 7 INT + 6 U32 + 2 U16 + 2 FLAG + 4 OBJ: 168 B with every scalar INT.
    assert SHADOW_SLAB.bytes_per_slot() == 118


# -- row operations: one statement of the encoding, two ways to run it ------

EDGE_INTS = st.sampled_from(
    [
        slab_module._SENT_FLOOR,  # at the floor: raises
        slab_module._SENT_FLOOR + 1,  # lowest inline value
        slab_module._INLINE_MAX,  # highest inline value
        slab_module._INLINE_MAX + 1,  # past array('q'): raises
        slab_module._NONE,  # the sentinel itself, as a value: raises
    ]
)
#: Everything a caller has been seen to store, legal for the column or not.
ANY_VALUE = st.one_of(
    INT_VALUES,
    EDGE_INTS,
    st.sampled_from(["10.0.0.1", b"\x02" * 6, 256, -1, 0x10000, 0, 1, 2, True, False, None, "x", "", (), 3.5]),
)


def column_bytes(slab):
    """Every column's raw content: what two slabs must agree on to be
    the same storage."""
    return {name: (list(col) if isinstance(col, list) else col.tobytes()) for name, col in slab.columns.items()}


def outcome(store):
    try:
        store()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_writer_and_property_stores_leave_identical_storage(data):
    names = data.draw(st.lists(st.sampled_from(FIELD_NAMES), unique=True, max_size=len(FIELD_NAMES)))
    by_row, RowView = make_slab_and_cls()
    by_field, FieldView = make_slab_and_cls()
    write = by_row.row_writer(names)
    row, fields = RowView(), FieldView()
    row._bind()
    fields._bind()
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):  # overwrites too
        values = [data.draw(ANY_VALUE) for _ in names]

        def field_by_field():
            for name, value in zip(names, values):
                setattr(fields, name, value)

        assert outcome(lambda: write(row.slab_slot, *values)) == outcome(field_by_field)
        assert column_bytes(by_row) == column_bytes(by_field)
    # A slot the row writer filled frees to zero like any other.
    slot = row.slab_slot
    del row
    assert by_row.dirty_fields(slot) == []
    assert all(by_row.column_view(name)[slot] == 0 for name, kind in FIELDS if kind != OBJ)


def test_row_writer_names_the_field_it_could_not_store():
    import pytest

    slab, View = make_slab_and_cls()
    view = View()
    view._bind()
    write = slab.row_writer(("alpha", "eps", "zeta"))
    with pytest.raises(OverflowError, match="^eps: "):
        write(view.slab_slot, 1, 256, 2)
    with pytest.raises(TypeError, match="^zeta: "):
        write(view.slab_slot, 1, 2, None)
    with pytest.raises(KeyError):
        slab.row_writer(("alpha", "nope"))
    assert slab.row_writer(())(view.slab_slot) is None


@pytest.mark.parametrize(
    "value, error",
    [
        ("10.0.0.1", TypeError),
        (b"\x02" * 6, TypeError),
        (True, TypeError),
        (slab_module._INLINE_MAX + 1, OverflowError),
        (slab_module._SENT_FLOOR, OverflowError),
    ],
)
def test_an_int_column_refuses_what_it_cannot_hold_and_names_the_field(value, error):
    slab, View = make_slab_and_cls()
    view = View()
    view._bind()
    view.alpha = 7
    with pytest.raises(error, match="^alpha: "):
        view.alpha = value
    with pytest.raises(error, match="^beta: "):
        slab.row_writer(("beta",))(view.slab_slot, value)
    assert (view.alpha, view.beta) == (7, 0)  # nothing was stored
    view.alpha = None
    assert view.alpha is None


def test_a_record_is_complete_the_moment_it_exists():
    """The row write is the install: the record its first touch makes shows
    no placeholder flow group or peer MAC, and untouched fields are the
    zero alloc() promises."""
    from repro.flextoe.state import CONN_SLAB, ConnectionTable, ProtoInstall, ProtocolState, install_row

    table = ConnectionTable(local_mac=0xAA, local_ip=0x0A000001)
    table.put(7, install_row(
        (0x0A000001, 0x0A000002, 5000, 6000),
        peer_mac=0x020202020202,
        flow_group=3,
        proto=ProtoInstall(seq=10, ack=20, rx_avail=4096, remote_win=1 << 20),
        context_id=4,
        opaque="tok",
        rx_buffer=("rx", 64, 4096),
        tx_buffer=("tx", 128, 8192),
    ))
    record = table.get(7)
    assert table.get(7) is record and record.index == 7
    assert record._pre is None and record._proto is None and record._post is None  # no view was needed
    assert (record.pre.flow_group, record.pre.peer_mac) == (3, 0x020202020202)
    assert record.four_tuple == (0x0A000001, 0x0A000002, 5000, 6000)
    assert record.active and record.local_mac == 0xAA
    fresh = ProtocolState(seq=10, ack=20, rx_avail=4096, remote_win=1 << 20)
    for name in ProtocolState.SLAB_FIELDS:
        assert getattr(record.proto, name) == getattr(fresh, name), name
    assert record.proto.fin_seq is None and record.proto.rx_fin_seq is None
    post = record.post
    assert (post.opaque, post.context_id, post.rx_region, post.rx_base, post.rx_size) == ("tok", 4, "rx", 64, 4096)
    assert (post.tx_region, post.tx_base, post.tx_size) == ("tx", 128, 8192)
    assert (post.cnt_ackb, post.rtt_est, post.rate) == (0, 0, 0)
    slot = record.slab_slot
    del table, record, post
    assert CONN_SLAB.dirty_fields(slot) == []


def parent_reconstruction(shadow):
    """What the parent commit installed for a recovered connection: a
    loose ProtocolState filled field by field (then ``copy_from``-ed)."""
    from repro.flextoe.state import ProtocolState
    from repro.proto.tcp import seq_add

    proto = ProtocolState()
    proto.seq = seq_add(shadow.snd_iss, shadow.tx_acked)
    proto.tx_pos = shadow.tx_acked
    proto.tx_avail = shadow.tx_posted - shadow.tx_acked
    proto.tx_sent = 0
    proto.ack = seq_add(shadow.rcv_irs, shadow.rx_delivered)
    proto.rx_pos = shadow.rx_delivered
    proto.rx_avail = shadow.rx_size - (shadow.rx_delivered - shadow.rx_consumed)
    if shadow.peer_fin_seen:
        proto.rx_fin_seq = proto.ack
        proto.ack = seq_add(proto.ack, 1)
    if shadow.fin_posted:
        proto.fin_pending = True
    snap = shadow.nic_snapshot
    if snap is not None:
        proto.remote_win = snap.get("remote_win", proto.remote_win)
        proto.next_ts = snap.get("next_ts", 0)
    return {name: getattr(proto, name) for name in ProtocolState.SLAB_FIELDS}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recovered_install_equals_the_field_by_field_one(data):
    from repro.control.recovery import ConnShadow, reconstruct_protocol_state, write_shadow
    from repro.flextoe import FlexToeNic
    from repro.flextoe.state import ProtocolState
    from repro.sim import Simulator

    u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
    count = st.integers(min_value=0, max_value=1 << 40)
    four = (0x0A000001, 0x0A000002, 5000, 6000)
    buffers = (("rx", 0, 1 << 16), ("tx", 1 << 16, 1 << 16))
    shadow = ConnShadow.claim(0, write_shadow(four, 0xBB, data.draw(u32), data.draw(u32), 1, "tok", *buffers))
    shadow.tx_acked = data.draw(count)
    shadow.tx_posted = shadow.tx_acked + data.draw(st.integers(min_value=0, max_value=1 << 16))
    shadow.rx_consumed = data.draw(count)
    shadow.rx_delivered = shadow.rx_consumed + data.draw(st.integers(min_value=0, max_value=1 << 16))
    shadow.peer_fin_seen = data.draw(st.booleans())
    shadow.fin_posted = data.draw(st.booleans())
    shadow.nic_snapshot = data.draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries({}, optional={"remote_win": st.integers(0, 1 << 30), "next_ts": u32}),
        )
    )
    proto = reconstruct_protocol_state(shadow)
    nic = FlexToeNic(Simulator(), local_mac=0xAA, local_ip=four[0])
    record = nic.connection(nic.offload_connection(0, four, 0xBB, proto.seq, proto.ack, 1, "tok", *buffers, proto=proto))
    assert {name: getattr(record.proto, name) for name in ProtocolState.SLAB_FIELDS} == parent_reconstruction(shadow)
    assert record.pre.flow_group == nic.config.flow_group_of(four)
    assert nic.datapath.lookup_engine.lookup(four)[:2] == (True, 0)


def test_sanitized_row_install_is_guarded_and_alloc_asserts_zero():
    import pytest

    from repro.analysis import sanitizer
    from repro.flextoe import FlexToeNic
    from repro.flextoe.state import CONN_SLAB
    from repro.sim import Simulator

    was_installed = sanitizer.enabled()
    sanitizer.install()
    try:
        nic = FlexToeNic(Simulator(), local_mac=0xAA, local_ip=0x0A000001)
        record = nic.connection(nic.offload_connection(
            0, (0x0A000001, 0x0A000002, 5000, 6000), 0xBB, 1, 1, 1, "tok", ("rx", 0, 4096), ("tx", 0, 4096)
        ))

        def pre_stage():
            record.proto.seq = 99  # not the protocol stage
            yield

        with pytest.raises(sanitizer.SanitizerError, match="only the atomic protocol stage"):
            sanitizer.guard(lambda _entry: next(pre_stage()), "pre")(None)
        with pytest.raises(sanitizer.SanitizerError, match="immutable"):
            record.pre.flow_group = 0
        # A slot that comes back dirty (a free() that missed a column, a
        # write through a stale view) is caught where it is handed out.
        slot = CONN_SLAB.alloc()
        CONN_SLAB.free(slot)
        CONN_SLAB.columns["rtt_est"][slot] = 5
        with pytest.raises(sanitizer.SanitizerError, match="slot {} with stale rtt_est".format(slot)):
            CONN_SLAB.alloc()
        CONN_SLAB.columns["rtt_est"][slot] = 0
        CONN_SLAB._free.append(slot)  # the failed alloc() had popped it
    finally:
        if not was_installed:
            sanitizer.uninstall()


def test_generated_functions_are_told_apart_by_a_profiler():
    """cProfile/pstats key a function by (file, first line, name) and keep
    one entry per key: generated accessors that shared one would vanish
    from ``perf/``'s layer ledger, which charges by file name."""
    from repro.flextoe.state import CONN_SLAB, PostprocState, PreprocState, ProtocolState

    codes = [
        accessor.__code__
        for cls in (PreprocState, ProtocolState, PostprocState)
        for name in cls.SLAB_FIELDS
        for accessor in (getattr(cls, name).fget, getattr(cls, name).fset)
    ] + [CONN_SLAB.row_writer(("seq",)).__code__, CONN_SLAB._zero.__code__]
    keys = {(code.co_filename, code.co_firstlineno, code.co_name) for code in codes}
    assert len(keys) == len(codes)
    assert {code.co_filename for code in codes} == {slab_module.__file__}
    with open(slab_module.__file__) as source:
        assert min(code.co_firstlineno for code in codes) > len(source.readlines())


# -- who frees a row: the table, or the view something touched --------------


def _conn_rows():
    from repro.flextoe.state import CONN_SLAB, ConnectionTable, install_row

    return CONN_SLAB, ConnectionTable, lambda index: install_row((1, 2, 3, index), 0xAA)


def _shadow_rows():
    from repro.control.recovery import SHADOW_SLAB, ShadowTable, write_shadow

    buffer = (None, 0, 0)
    return (
        SHADOW_SLAB,
        lambda: ShadowTable(1),
        lambda index: write_shadow((1, 2, 3, index), 0xBB, 1, 1, 1, None, buffer, buffer),
    )


@pytest.fixture
def frozen_heap():
    """Everything alive before the test moves to the collector's
    permanent generation, so each example's ``gc.collect()`` walks only
    what the test made since, not the whole process."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from([_conn_rows, _shadow_rows]))
def test_a_row_is_freed_once_by_whoever_lets_go_last(frozen_heap, data, rows):
    """Install, touch, hold, remove, re-install on the freed index, drop
    the table: a slot a held view owns is never handed to another row, a
    held removed record reads inactive, and once the tables and the held
    views are gone the slab is back where it started — rows nobody
    touched included."""
    from repro.flextoe.state import ConnectionTable

    slab, make_table, install = rows()
    gc.collect()
    start = slab.live
    table, free, next_index = make_table(), [], 0
    held = []  # {"view", "index", "attached", "removed"}
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        installed = [index for index, _slot in table.items()]
        op = data.draw(st.sampled_from(["install", "drop"] + (["touch", "hold", "remove"] if installed else [])))
        if op == "install":  # freed indices first, last freed first
            index = free.pop() if free else next_index
            next_index = max(next_index, index + 1)
            if isinstance(table, ConnectionTable):
                assert table.allocate_index() == index
            table.put(index, install(index))
        elif op == "drop":
            table, free, next_index = make_table(), [], 0
            for entry in held:
                entry["attached"] = False
        else:
            index = data.draw(st.sampled_from(installed))
            if op == "touch":
                assert table.get(index) is table.get(index)
            elif op == "hold":
                held.append({"view": table.get(index), "index": index, "attached": True, "removed": False})
            else:
                table.remove(index)
                free.append(index)
                for entry in held:
                    if entry["attached"] and entry["index"] == index:
                        entry.update(attached=False, removed=True)
        detached = {id(entry["view"]): entry["view"].slab_slot for entry in held if not entry["attached"]}
        owned = [slot for _index, slot in table.items()] + list(detached.values())
        assert len(set(owned)) == len(owned), "a slot was re-let under a held view"
        assert slab.live == start + len(owned)
        for entry in held:
            if entry["removed"] and hasattr(entry["view"], "active"):  # a record
                assert entry["view"].active is False
    table = held = entry = None
    gc.collect()
    assert slab.live == start
