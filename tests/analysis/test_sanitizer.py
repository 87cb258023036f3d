"""Runtime ownership sanitizer (REPRO_SANITIZE)."""

import gc

import pytest

from repro.analysis import sanitizer
from repro.flextoe.state import CONN_SLAB, PostprocState, PreprocState, ProtocolState


def _make_pre(flow_group=0):
    return PreprocState(0x020202020202, 0x0A000002, 1000, 2000, flow_group)


def _make_post():
    return PostprocState(opaque=1, context_id=0, rx_base=0, tx_base=0, rx_size=4096, tx_size=4096)


def _install(state, flow_group):
    """Mark a scratch partition's row as install_row() leaves one: live
    (``active``) and owned by ``flow_group``."""
    CONN_SLAB.columns["active"][state.slab_slot] = True
    CONN_SLAB.columns["flow_group"][state.slab_slot] = flow_group
    return state


def _run_wrapped(factory, stage, flow_group=None):
    """What ``factory()`` yields first, run as a chain's step is: under
    ``stage``'s owner token (``sanitizer.guard``)."""
    first = []
    sanitizer.guard(lambda _entry: first.append(next(factory())), stage, flow_group)(None)
    return first[0]


def test_install_is_idempotent_and_uninstall_restores(sanitized):
    sanitizer.install()  # second install is a no-op
    assert sanitizer.enabled()
    state = ProtocolState()
    state.seq = 1  # no stage context: allowed
    sanitizer.uninstall()
    assert not sanitizer.enabled()
    assert ProtocolState.__setattr__ is object.__setattr__
    sanitizer.install()  # restore for the fixture's uninstall


def test_non_protocol_stage_write_raises(sanitized):
    state = ProtocolState()
    _install(state, 0)

    def pre_stage():
        state.seq = 99
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="only the atomic protocol stage"):
        _run_wrapped(pre_stage, "pre")


def test_cross_flow_group_write_raises(sanitized):
    state = ProtocolState()
    _install(state, 2)

    def wrong_group():
        state.ack = 5
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="cross-flow-group"):
        _run_wrapped(wrong_group, "proto", flow_group=1)


def test_owning_protocol_stage_write_allowed(sanitized):
    state = ProtocolState()
    _install(state, 2)

    def owner():
        state.ack = 7
        yield "ok"

    assert _run_wrapped(owner, "proto", flow_group=2) == "ok"
    assert state.ack == 7


def test_uninstalled_state_is_not_guarded(sanitized):
    state = ProtocolState()  # never installed: e.g. a scratch record

    def pre_stage():
        state.seq = 1
        yield "ok"

    assert _run_wrapped(pre_stage, "pre") == "ok"


def test_owner_cleared_while_suspended(sanitized):
    state = ProtocolState()
    _install(state, 0)

    def proc():
        yield "suspend"

    sanitizer.guard(lambda _entry: next(proc()), "pre")(None)
    assert sanitizer.current_owner() is None
    state.seq = 3  # control-plane write between stage steps: allowed


def test_a_removed_row_is_not_guarded(sanitized):
    state = _install(ProtocolState(), 0)
    CONN_SLAB.columns["active"][state.slab_slot] = False  # as ConnectionTable.remove leaves it

    def pre_stage():
        state.seq = 1
        yield "ok"

    assert _run_wrapped(pre_stage, "pre") == "ok"


def test_preproc_state_immutable_after_install(sanitized):
    pre = _make_pre()
    _install(pre, 0)
    # Even without stage context: the identification partition is
    # install-time-only.
    with pytest.raises(sanitizer.SanitizerError, match="immutable"):
        pre.local_port = 1234

    def rogue_stage():
        pre.flow_group = 1
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="immutable"):
        _run_wrapped(rogue_stage, "pre", flow_group=0)


def test_preproc_state_writable_before_install(sanitized):
    pre = _make_pre()
    pre.local_port = 1234  # construction / pre-install mutation
    assert pre.local_port == 1234


def test_postproc_state_rejects_non_post_stages(sanitized):
    post = _make_post()
    _install(post, 0)

    def pre_stage():
        post.cnt_ackb = 10
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="only the owning post stage"):
        _run_wrapped(pre_stage, "pre", flow_group=0)


def test_postproc_state_owning_post_stage_allowed(sanitized):
    post = _make_post()
    _install(post, 2)

    def owner():
        post.cnt_ackb = 10
        yield "ok"

    assert _run_wrapped(owner, "post", flow_group=2) == "ok"
    assert post.cnt_ackb == 10


def test_postproc_state_cross_group_post_stage_raises(sanitized):
    post = _make_post()
    _install(post, 2)

    def wrong_group():
        post.cnt_ackb = 10
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="cross-flow-group"):
        _run_wrapped(wrong_group, "post", flow_group=1)


def test_postproc_state_run_to_completion_proto_token_allowed(sanitized):
    # Run-to-completion executes the post logic inline under the worker's
    # 'proto' token; that is the same serialized execution, not a race.
    post = _make_post()
    _install(post, 0)

    def rtc_worker():
        post.cnt_ackb = 3
        yield "ok"

    assert _run_wrapped(rtc_worker, "proto", flow_group=0) == "ok"


def test_postproc_state_control_plane_poll_allowed(sanitized):
    post = _make_post()
    _install(post, 0)
    post.cnt_ackb = 77  # no stage context: the cc-stats poll
    assert post.take_cc_stats() == (77, 0, 0, 0)
    post.fold_rtt_samples(100, 2)
    assert post.rtt_est == 50


def test_uninstall_restores_all_partition_classes(sanitized):
    sanitizer.uninstall()
    assert PreprocState.__setattr__ is object.__setattr__
    assert ProtocolState.__setattr__ is object.__setattr__
    assert PostprocState.__setattr__ is object.__setattr__
    sanitizer.install()  # restore for the fixture's uninstall


def _installed_record(index=0, flow_group=2):
    """A row installed as the data path installs one, and its record."""
    from repro.flextoe.state import ConnectionRecord, install_row

    slot = install_row((0x0A000001, 0x0A000002, 1000, 2000), 0x020202020202, flow_group)
    return ConnectionRecord.claim(index, slot)


def test_guard_is_keyed_by_slot_not_by_view(sanitized):
    # A connection installed as a row has no partition view until
    # something touches it; whichever view that is — a *different
    # object* on the *same slab slot* — is owned by the row's group.
    record = _installed_record(flow_group=2)
    slot = record.slab_slot
    proto, pre = ProtocolState.view(slot), PreprocState.view(slot)
    assert proto is not record.proto

    def rogue_stage():
        proto.seq = 99
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="only the atomic protocol stage"):
        _run_wrapped(rogue_stage, "pre")
    with pytest.raises(sanitizer.SanitizerError, match="immutable"):
        pre.local_port = 4242

    def owner():
        proto.seq = 7
        yield "ok"

    assert _run_wrapped(owner, "proto", flow_group=2) == "ok"
    assert record.proto.seq == 7


def test_removal_through_the_table_unguards_every_view(sanitized):
    # Teardown clears the row's ``active``; views made before it, and
    # fresh ones, are all views of that row.
    from repro.flextoe.state import ConnectionTable, install_row

    table = ConnectionTable()
    table.put(1, install_row((0x0A000001, 0x0A000002, 1000, 2000), 0x020202020202, 0))
    record = table.get(1)
    proto = record.proto
    table.remove(1)
    fresh = ProtocolState.view(record.slab_slot)

    def pre_stage():
        proto.seq = 1
        fresh.ack = 2
        record.pre.local_port = 3
        yield "ok"

    assert _run_wrapped(pre_stage, "pre") == "ok"


def test_slot_recycling_does_not_inherit_stale_ownership(sanitized):
    # A record abandoned without teardown (a dropped testbed) frees its
    # slab slot; the next connection recycling that slot is owned by its
    # own install's group, never by the dead connection's.
    from repro.flextoe.state import ConnectionRecord, install_row

    # An earlier test's record held in a reference cycle (a caught
    # traceback's frames), collected between the del and the alloc below,
    # would put its own slot on top of the free list.
    gc.collect()
    record = _installed_record(index=3, flow_group=3)
    slot = record.slab_slot
    del record  # refcount drop frees (and zeroes) the slot
    fresh = ConnectionRecord.claim(4, install_row((0x0A000001, 0x0A000009, 1, 2), 0x020202020202, 1))
    assert fresh.slab_slot == slot  # LIFO free list recycles
    with pytest.raises(sanitizer.SanitizerError, match=r"flow group 1\)"):
        fresh.pre.peer_mac = 0x090909090909

    def owner():
        fresh.proto.seq = 5
        yield "ok"

    def old_owner():
        fresh.proto.seq = 6
        yield "unreached"

    assert _run_wrapped(owner, "proto", flow_group=1) == "ok"
    with pytest.raises(sanitizer.SanitizerError, match="owned by flow group 1"):
        _run_wrapped(old_owner, "proto", flow_group=3)


def test_end_to_end_flextoe_run_is_clean(sanitized):
    # A real echo RPC exchange over the sanitized pipeline: every stage
    # process is wrapped, connection state is installed at offload, and
    # no ownership violation fires.
    from repro.apps import EchoServer
    from repro.apps.rpc import ClosedLoopClient
    from repro.harness import Testbed

    bed = Testbed(seed=7)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    echo = EchoServer(server.new_context(), 7000, request_size=64)
    bed.sim.process(echo.run(), name="echo")
    rpc = ClosedLoopClient(client.new_context(), server.ip, 7000, 64, 64, warmup=1)
    proc = bed.sim.process(rpc.run(5), name="rpc")
    bed.sim.run(until=proc)
    assert rpc.histogram.count >= 4
