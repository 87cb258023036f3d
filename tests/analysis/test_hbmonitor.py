"""Runtime validation of the static HB model (REPRO_SANITIZE)."""

import pytest

from repro.analysis import sanitizer
from repro.analysis.hbmonitor import HBViolationError, _OrderBook
from repro.flextoe.descriptors import NOTIFY_RX, Notification, SegWork, WORK_RX


def _testbed_host(sanitized):
    from repro.harness import Testbed

    bed = Testbed(seed=11)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    return bed, server, client


# -- order book -------------------------------------------------------------


def test_order_book_accepts_fifo_and_tolerates_filtered_items():
    book = _OrderBook()
    a, b, c = object(), object(), object()
    book.expect(1, a)
    book.expect(1, b)
    book.expect(1, c)
    # b arrives first: a was legitimately filtered out of the stream.
    assert book.arrive(1, b)
    assert book.arrive(1, c)


def test_order_book_detects_reordering():
    book = _OrderBook()
    a, b = object(), object()
    book.expect(1, a)
    book.expect(1, b)
    assert book.arrive(1, b)  # consumes past a
    assert not book.arrive(1, a)  # a overtaken: reorder


def test_order_book_stray_arrival_does_not_poison_the_queue():
    book = _OrderBook()
    a = object()
    book.expect(1, a)
    assert not book.arrive(1, object())  # never-expected item
    assert book.arrive(1, a)  # the real stream is intact


def test_order_book_discard_removes_one_entry_and_empties_the_key():
    # An item that left the stream early is taken out by identity; the
    # key's queue disappears with its last entry (nothing to forget).
    book = _OrderBook()
    a, b = object(), object()
    book.expect(7, a)
    book.expect(7, b)
    book.discard(7, a)
    assert book.pending(7) == [b]
    assert not book.arrive(7, a)
    assert book.arrive(7, b)
    assert len(book) == 0


# -- monitor wiring ---------------------------------------------------------


def test_monitor_attaches_to_pipelined_datapath(sanitized):
    _bed, server, _client = _testbed_host(sanitized)
    dp = server.nic.datapath
    assert dp.hb_monitor is not None
    assert dp.dma_ring.tap is not None
    assert dp.ctx_ring.tap is not None


def test_end_to_end_run_is_clean_and_observed(sanitized):
    from repro.apps import EchoServer
    from repro.apps.rpc import ClosedLoopClient

    bed, server, client = _testbed_host(sanitized)
    echo = EchoServer(server.new_context(), 7000, request_size=64)
    bed.sim.process(echo.run(), name="echo")
    rpc = ClosedLoopClient(client.new_context(), server.ip, 7000, 64, 64, warmup=1)
    proc = bed.sim.process(rpc.run(5), name="rpc")
    bed.sim.run(until=proc)
    assert rpc.histogram.count >= 4
    # The monitor actually watched the pipeline, on both hosts.
    assert server.nic.datapath.hb_monitor.checked_puts > 0
    assert client.nic.datapath.hb_monitor.checked_puts > 0


# -- violation detection ----------------------------------------------------


def _work(conn=3):
    work = SegWork(WORK_RX)
    work.conn_index = conn
    return work


def _put_as(owner, ring, item):
    """Enqueue ``item`` from a step carrying ``owner``'s token."""
    sanitizer.guard(lambda _entry: ring.put(item), owner)(None)


def test_model_edge_violation_names_ring_and_declared_producers(sanitized):
    # The edge table the monitor enforces is the data path's RINGS, the
    # one assembly wires by — not a copy kept beside it.
    _bed, server, _client = _testbed_host(sanitized)
    dp = server.nic.datapath
    notification = Notification(NOTIFY_RX, 1, 3, context_id=1, length=10)
    with pytest.raises(HBViolationError, match="'post' enqueued into ctx_ring.*allows only dma"):
        _put_as("post", dp.ctx_ring, notification)
    before = dp.hb_monitor.checked_puts
    for owner in dp.RINGS["pre_in"][1]:  # ctx (HC doorbells) and sch (TX triggers)
        _put_as(owner, dp.pre_in, _work())
    assert dp.hb_monitor.checked_puts == before + 2
    with pytest.raises(HBViolationError, match="'dma' enqueued into pre_in.*allows only ctx/sch"):
        _put_as("dma", dp.pre_in, _work())


def test_protocol_order_violation_raises(sanitized):
    _bed, server, _client = _testbed_host(sanitized)
    monitor = server.nic.datapath.hb_monitor
    first, second = _work(), _work()
    monitor._on_post_put(first)
    monitor._on_post_put(second)
    monitor._on_dma_put(second)  # overtakes first: post_chain broken
    with pytest.raises(HBViolationError, match="post_chain"):
        monitor._on_dma_put(first)


def test_notification_order_violation_raises(sanitized):
    _bed, server, _client = _testbed_host(sanitized)
    monitor = server.nic.datapath.hb_monitor
    early = Notification(NOTIFY_RX, 1, 3, context_id=1, length=10)
    late = Notification(NOTIFY_RX, 1, 3, context_id=1, length=10)
    work_a, work_b = _work(), _work()
    work_a.notify = [early]
    work_b.notify = [late]
    monitor._on_post_put(work_a)
    monitor._on_post_put(work_b)
    monitor._on_dma_put(work_a)
    monitor._on_dma_put(work_b)
    monitor._on_ctx_put(late)  # dma_rx_chain broken
    with pytest.raises(HBViolationError, match="dma_rx_chain"):
        monitor._on_ctx_put(early)


def test_write_ahead_violation_raises(sanitized):
    _bed, server, _client = _testbed_host(sanitized)
    dp = server.nic.datapath
    monitor = dp.hb_monitor
    notification = Notification(NOTIFY_RX, 1, 3, context_id=42, length=10)
    ack = object.__new__(type("FakeFrame", (), {"pipeline_seq": None}))
    work = _work()
    work.notify = [notification]
    work.ack_frame = ack
    dp.contexts[42] = "registered-pair"  # the notification IS deliverable
    monitor._on_post_put(work)
    monitor._on_dma_put(work)
    # ACK reaches the wire-commit point before nic_deliver happened.
    with pytest.raises(HBViolationError, match="write-ahead"):
        monitor._on_wire_commit(ack)


def test_write_ahead_tolerates_unregistered_context(sanitized):
    _bed, server, _client = _testbed_host(sanitized)
    monitor = server.nic.datapath.hb_monitor
    notification = Notification(NOTIFY_RX, 1, 3, context_id=99, length=10)
    ack = object.__new__(type("FakeFrame", (), {"pipeline_seq": None}))
    work = _work()
    work.notify = [notification]
    work.ack_frame = ack
    monitor._on_post_put(work)
    monitor._on_dma_put(work)
    monitor._on_wire_commit(ack)  # context 99 never registered: no check


def test_control_plane_error_notification_is_tolerated(sanitized):
    _bed, server, _client = _testbed_host(sanitized)
    monitor = server.nic.datapath.hb_monitor
    error = Notification("error", 1, 3, context_id=1, error="timeout")
    # Delivered straight via nic_deliver, never through ctx_ring: the
    # pipeline ordering contract does not apply.
    monitor._on_ctx_event("notify", error)


def test_taps_go_quiet_after_crash(sanitized):
    _bed, server, _client = _testbed_host(sanitized)
    dp = server.nic.datapath
    monitor = dp.hb_monitor
    before = monitor.checked_puts
    dp.crashed = True
    dp.dma_ring.tap(_work())
    assert monitor.checked_puts == before
    dp.crashed = False


def test_retire_clears_the_books(sanitized):
    # The pipeline's one early exit is the monitor's one clean-up hook:
    # whatever a retired work was expected to bring is discharged.
    _bed, server, _client = _testbed_host(sanitized)
    dp = server.nic.datapath
    monitor = dp.hb_monitor
    in_post, in_dma = _work(conn=5), _work(conn=5)
    in_dma.notify = [Notification(NOTIFY_RX, 1, 5, context_id=1, length=10)]
    in_dma.ack_frame = object()
    monitor._on_post_put(in_dma)
    monitor._on_post_put(in_post)
    monitor._on_dma_put(in_dma)
    dp.retire(in_dma)  # connection gone when the DMA stage got to it
    dp.retire(in_post)  # ... and when the post stage got to the next
    assert monitor.outstanding() == {}


def test_violation_message_explains_itself(sanitized):
    # Identity of the key (index, opaque, whether the tenant is still
    # installed) and what the book expected instead.
    _bed, server, _client = _testbed_host(sanitized)
    nic = server.nic
    record = nic.connection(nic.offload_connection(
        index=nic.allocate_connection_index(),
        four_tuple=(server.ip, 0x0A000063, 7000, 6000),
        peer_mac=0xBB, local_mac=server.mac, iss=1, irs=1,
        context_id=1, opaque="sock-9", rx_buffer=(None, 0, 4096), tx_buffer=(None, 0, 4096),
    ))
    monitor = nic.datapath.hb_monitor
    first, second, third = _work(), _work(), _work()
    for work in (first, second, third):
        work.record = record
        work.conn_index = record.index
        monitor._on_post_put(work)
    monitor._on_dma_put(second)
    nic.remove_connection(record.index)
    with pytest.raises(HBViolationError) as raised:
        monitor._on_dma_put(first)
    message = str(raised.value)
    assert "conn {} opaque='sock-9' active=False".format(record.index) in message
    assert "expected next: [{!r}]".format(third) in message
