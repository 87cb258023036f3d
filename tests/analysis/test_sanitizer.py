"""Runtime ownership sanitizer (REPRO_SANITIZE)."""

import gc

import pytest

from repro.analysis import sanitizer
from repro.flextoe.state import PostprocState, PreprocState, ProtocolState


def _make_pre(flow_group=0):
    return PreprocState(b"\x02" * 6, "10.0.0.2", 1000, 2000, flow_group)


def _make_post():
    return PostprocState(opaque=1, context_id=0, rx_base=0, tx_base=0, rx_size=4096, tx_size=4096)


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
    sanitizer.register(state, flow_group=0)

    def pre_stage():
        state.seq = 99
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="only the atomic protocol stage"):
        _run_wrapped(pre_stage, "pre")


def test_cross_flow_group_write_raises(sanitized):
    state = ProtocolState()
    sanitizer.register(state, flow_group=2)

    def wrong_group():
        state.ack = 5
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="cross-flow-group"):
        _run_wrapped(wrong_group, "proto", flow_group=1)


def test_owning_protocol_stage_write_allowed(sanitized):
    state = ProtocolState()
    sanitizer.register(state, flow_group=2)

    def owner():
        state.ack = 7
        yield "ok"

    assert _run_wrapped(owner, "proto", flow_group=2) == "ok"
    assert state.ack == 7


def test_unregistered_state_is_not_guarded(sanitized):
    state = ProtocolState()  # never registered: e.g. a scratch record

    def pre_stage():
        state.seq = 1
        yield "ok"

    assert _run_wrapped(pre_stage, "pre") == "ok"


def test_owner_cleared_while_suspended(sanitized):
    state = ProtocolState()
    sanitizer.register(state, flow_group=0)

    def proc():
        yield "suspend"

    sanitizer.guard(lambda _entry: next(proc()), "pre")(None)
    assert sanitizer.current_owner() is None
    state.seq = 3  # control-plane write between stage steps: allowed


def test_unregister_drops_the_guard(sanitized):
    state = ProtocolState()
    sanitizer.register(state, flow_group=0)
    sanitizer.unregister(state)

    def pre_stage():
        state.seq = 1
        yield "ok"

    assert _run_wrapped(pre_stage, "pre") == "ok"


def test_preproc_state_immutable_after_install(sanitized):
    pre = _make_pre()
    sanitizer.register(pre, flow_group=0)
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
    sanitizer.register(post, flow_group=0)

    def pre_stage():
        post.cnt_ackb = 10
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="only the owning post stage"):
        _run_wrapped(pre_stage, "pre", flow_group=0)


def test_postproc_state_owning_post_stage_allowed(sanitized):
    post = _make_post()
    sanitizer.register(post, flow_group=2)

    def owner():
        post.cnt_ackb = 10
        yield "ok"

    assert _run_wrapped(owner, "post", flow_group=2) == "ok"
    assert post.cnt_ackb == 10


def test_postproc_state_cross_group_post_stage_raises(sanitized):
    post = _make_post()
    sanitizer.register(post, flow_group=2)

    def wrong_group():
        post.cnt_ackb = 10
        yield "unreached"

    with pytest.raises(sanitizer.SanitizerError, match="cross-flow-group"):
        _run_wrapped(wrong_group, "post", flow_group=1)


def test_postproc_state_run_to_completion_proto_token_allowed(sanitized):
    # Run-to-completion executes the post logic inline under the worker's
    # 'proto' token; that is the same serialized execution, not a race.
    post = _make_post()
    sanitizer.register(post, flow_group=0)

    def rtc_worker():
        post.cnt_ackb = 3
        yield "ok"

    assert _run_wrapped(rtc_worker, "proto", flow_group=0) == "ok"


def test_postproc_state_control_plane_poll_allowed(sanitized):
    post = _make_post()
    sanitizer.register(post, flow_group=0)
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

    slot = install_row(("10.0.0.1", "10.0.0.2", 1000, 2000), b"\x01" * 6)
    sanitizer.register_row(slot, flow_group)
    return ConnectionRecord.claim(index, slot)


def test_guard_is_keyed_by_slot_not_by_view(sanitized):
    # A connection installed as a row has no partition view until
    # something touches it; whichever view that is — a *different
    # object* on the *same slab slot* — carries the registered token.
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


def test_unregister_through_a_fresh_view_drops_the_guard(sanitized):
    # Teardown unregisters through whatever views it has, not the ones
    # install registered; the slot keying makes that equivalent.
    record = _installed_record(index=1, flow_group=0)
    slot = record.slab_slot
    sanitizer.unregister(PreprocState.view(slot))
    sanitizer.unregister(ProtocolState.view(slot))
    sanitizer.unregister(PostprocState.view(slot))

    def pre_stage():
        record.proto.seq = 1
        yield "ok"

    assert _run_wrapped(pre_stage, "pre") == "ok"


def test_sibling_partitions_share_the_slot_without_sharing_tokens(sanitized):
    # pre/proto/post are three views of ONE slab slot; registration is
    # per partition class, so guarding proto does not guard post.
    record = _installed_record(index=2, flow_group=1)
    sanitizer.unregister(record.post)

    def pre_stage():
        record.post.cnt_ackb = 1  # unregistered partition: scratch
        yield "ok"

    assert _run_wrapped(pre_stage, "pre") == "ok"
    with pytest.raises(sanitizer.SanitizerError, match="immutable"):
        record.pre.flow_group = 3


def test_slot_recycling_does_not_inherit_stale_ownership(sanitized):
    # A record abandoned without explicit unregister (a dropped testbed)
    # frees its slab slot; the next connection recycling that slot must
    # start unguarded, not inherit the dead connection's registration.
    from repro.flextoe.state import ConnectionRecord, install_row

    # An earlier test's record held in a reference cycle (a caught
    # traceback's frames), collected between the del and the alloc below,
    # would put its own slot on top of the free list.
    gc.collect()
    record = _installed_record(index=3, flow_group=3)
    slot = record.slab_slot
    del record  # refcount drop frees the slot, no unregister call
    fresh = ConnectionRecord.claim(4, install_row(("10.0.0.1", "10.0.0.9", 1, 2), b"\x01" * 6))
    assert fresh.slab_slot == slot  # LIFO free list recycles
    fresh.pre.peer_mac = b"\x09" * 6  # would raise "immutable" if stale


def test_end_to_end_flextoe_run_is_clean(sanitized):
    # A real echo RPC exchange over the sanitized pipeline: every stage
    # process is wrapped, connection state is registered at offload, and
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
