"""Teardown races inside the pipeline.

A work carries its connection record; a stage that finds the record
removed retires the work (``FlexToeDatapath.retire``), which must
release the work's NBI ordering ticket — or the egress reorder buffer
waits forever and every later frame on the NIC wedges (seqr.py's skip()
contract) — and must never let the work touch the index's next tenant.
"""

from repro.flextoe import FlexToeNic
from repro.flextoe.config import PipelineConfig
from repro.flextoe.descriptors import WORK_TX, ProtoSnapshot, SegWork
from repro.host.memory import HugepagePool
from repro.libtoe.buffers import CircularBuffer
from repro.nfp.fpc import Fpc, FpcThread
from repro.proto.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.proto.ip import IPPROTO_TCP, Ipv4Header
from repro.proto.packet import Frame
from repro.proto.tcp import FLAG_ACK, FLAG_PSH, TcpHeader
from repro.sim import Simulator

LOCAL_IP, PEER_IP, PEER_PORT = 0x0A000001, 0x0A000002, 6000
ISS, IRS = 1000, 2000


def finish(stage, work):
    """``stage.process`` for a work it finishes with no wait, on a spare
    hardware thread: the value it goes on to its last step with."""
    thread = FpcThread(Fpc(stage.dp.sim, "probe"), 0)
    ended = []
    stage.process(thread, work, lambda _thread, value: ended.append(value))
    (value,) = ended
    return value


class Wire:
    """A network port that records what the NIC transmits."""

    receiver = None

    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)


def make_nic(config=None):
    nic = FlexToeNic(Simulator(), config=config or PipelineConfig.with_intra_fpc_parallelism())
    nic.register_context(1)
    nic.attach_port(Wire())
    return nic


def offload(nic, port, opaque):
    """Install a connection; returns (record, its host RX buffer)."""
    pool = HugepagePool(n_pages=1)
    rx = CircularBuffer(pool.alloc(4096))
    tx = CircularBuffer(pool.alloc(4096))
    index = nic.offload_connection(
        index=nic.allocate_connection_index(),
        four_tuple=(LOCAL_IP, PEER_IP, port, PEER_PORT),
        peer_mac=0xBB,
        local_mac=0xAA,
        iss=ISS,
        irs=IRS,
        context_id=1,
        opaque=opaque,
        rx_buffer=rx.as_triple(),
        tx_buffer=tx.as_triple(),
    )
    return nic.connection(index), rx


def ticketed_work(nic):
    """TX work the way the protocol stage hands it off: CTM segment
    buffer held, snapshot built, NBI egress ticket taken — but its
    connection has since been removed."""
    record, _rx = offload(nic, 5000, "gone")
    nic.remove_connection(record.index)
    dp = nic.datapath
    work = SegWork(WORK_TX)
    work.record = record
    work.conn_index = record.index
    work.frame = Frame(EthernetHeader(dst=0xBB, src=0xAA, ethertype=ETHERTYPE_IPV4))
    work.frame.set_meta("ctm_grant", dp.ctm_pool.request())  # granted at once
    snapshot = ProtoSnapshot()
    snapshot.nbi_seq = dp.nbi_seqr.assign(work)
    work.snapshot = snapshot
    assert dp.ctm_pool.in_use == 1 and not record.active
    return work


def assert_retired_once(dp):
    # The ticket was skipped — the reorder buffer's expectation moved
    # past it, so the egress stream is not stalled — and the buffer is
    # back in the pool (a second release raises in the stage thread).
    assert dp.nbi_gro.expected == dp.nbi_seqr.issued
    assert dp.ctm_pool.in_use == 0
    assert len(dp.post_fence) == 0 and len(dp.dma_ring) == 0


def test_post_stage_drop_releases_nbi_ticket():
    # Through PostStage.program, the way the work really travels:
    # process declines to emit, program's one exit retires it — once.
    nic = make_nic()
    dp = nic.datapath
    work = ticketed_work(nic)
    assert finish(dp.post_stages[0], work) is False  # frees nothing itself
    assert dp.ctm_pool.in_use == 1
    dp.post_rings[0].force_put(work)
    dp.sim.run(until=dp.sim.now + 10_000)
    assert_retired_once(dp)


def test_dma_stage_drop_releases_nbi_ticket():
    nic = make_nic()
    dp = nic.datapath
    finish(dp.dma_stages[0], ticketed_work(nic))  # all of DmaStage.program
    assert_retired_once(dp)


def test_run_to_completion_post_drop_retires_once():
    # The single-thread baseline has its own post->DMA hop and therefore
    # its own else-arm; same contract.
    nic = FlexToeNic(Simulator(), config=PipelineConfig.baseline_run_to_completion())
    nic.register_context(1)
    nic.attach_port(Wire())
    dp = nic.datapath
    work = ticketed_work(nic)
    # Parked where the worker's post step picks it up. A stale scheduler
    # trigger wakes the worker (and stops in the pre-stage); an empty-
    # handed work of the same dead connection walks it through proto.
    bare = SegWork(WORK_TX)
    bare.record, bare.conn_index = work.record, work.conn_index
    trigger = SegWork(WORK_TX)
    trigger.conn_index = work.conn_index
    dp.post_rings[0].force_put(work)
    dp.proto_rings[0].force_put(bare)
    dp.pre_in.force_put(trigger)
    dp.sim.run(until=dp.sim.now + 10_000)
    assert len(dp.proto_rings[0]) == 0 and len(dp.post_rings[0]) == 0
    assert_retired_once(dp)


def test_later_egress_flows_after_mid_pipeline_drop():
    # The wedge regression in full: ticket 0 is dropped mid-pipeline,
    # ticket 1 belongs to a live frame — it must release immediately
    # rather than wait behind the orphan.
    nic = make_nic()
    dp = nic.datapath
    dp.post_rings[0].force_put(ticketed_work(nic))
    dp.sim.run(until=dp.sim.now + 10_000)

    live = SegWork(WORK_TX)
    live.conn_index = 3
    dp.nbi_seqr.assign(live)
    dp.nbi_gro.offer(live)
    assert dp.nbi_gro.released == 1
    assert dp.nbi_gro.buffered == 0


# -- the race itself, on a running pipeline ---------------------------------


def segment(port, payload):
    """The peer's first in-order data segment for the connection on ``port``."""
    return Frame(
        EthernetHeader(dst=0xAA, src=0xBB, ethertype=ETHERTYPE_IPV4),
        ip=Ipv4Header(src=PEER_IP, dst=LOCAL_IP, proto=IPPROTO_TCP),
        tcp=TcpHeader(sport=PEER_PORT, dport=port, seq=IRS, ack=ISS, flags=FLAG_ACK | FLAG_PSH, window=0xFFFF),
        payload=payload,
    )


def run_until_in_post(nic, port, payload):
    """Receive one segment and stop with its work popped from post_rings
    but not yet put to dma_ring: inside the post stage, holding an NBI
    ticket for its ACK."""
    dp, sim = nic.datapath, nic.datapath.sim
    dp._on_mac_rx(segment(port, payload))
    deadline = sim.now + 100_000
    while not dp.nbi_seqr.issued or any(len(ring) for ring in dp.post_rings):
        assert sim.now < deadline, "segment never reached the post stage"
        sim.run(until=sim.now + 1)
    assert len(dp.dma_ring) == 0 and dp.nbi_gro.expected == 0


def notifications(nic):
    return list(nic.context_pair(1).inbound)


def test_removal_under_a_work_in_post_is_a_legal_race(sanitized):
    # ROADMAP item 1's red gate, minimal: the cp-timer removes a
    # connection while one of its works is inside PostStage.process.
    # The work still enters dma_ring — in its own tenant's order, so the
    # HB monitor must stay quiet — and the DMA stage retires it.
    nic = make_nic()
    dp = nic.datapath
    assert dp.hb_monitor is not None
    record, rx = offload(nic, 5000, "old")
    run_until_in_post(nic, 5000, b"\xaa" * 200)
    nic.remove_connection(record.index)
    dp.sim.run(until=dp.sim.now + 100_000)  # HBViolationError at the parent
    assert dp.nbi_gro.expected == dp.nbi_seqr.issued  # ACK ticket released
    assert rx.region.read(0, 200) == bytes(200)  # retired, not delivered
    assert notifications(nic) == []
    assert dp.hb_monitor.outstanding() == {}


def test_recycled_index_does_not_adopt_the_old_tenants_work():
    # Same race, then the index is recycled before the old work reaches
    # DMA. Looked up by index alone, the old payload would land in the
    # new tenant's buffer and be notified under the new tenant's opaque.
    nic = make_nic()
    dp = nic.datapath
    old, _old_rx = offload(nic, 5000, "old")
    run_until_in_post(nic, 5000, b"\xaa" * 200)
    nic.remove_connection(old.index)
    new, new_rx = offload(nic, 5001, "new")
    assert new.index == old.index
    # The old tenant's turn is still open; the new tenant's first work
    # is not fenced behind it.
    assert len(dp.post_fence) == 1
    turn = dp.post_fence.enter(new)
    assert not turn.blocked()
    turn.leave()
    dp.sim.run(until=dp.sim.now + 100_000)
    assert new_rx.region.read(0, 4096) == bytes(4096)
    assert notifications(nic) == []
    assert dp.nbi_gro.expected == dp.nbi_seqr.issued
    # And the new tenant is served normally.
    dp._on_mac_rx(segment(5001, b"\xbb" * 50))
    dp.sim.run(until=dp.sim.now + 100_000)
    assert new_rx.region.read(0, 51) == b"\xbb" * 50 + b"\x00"
    assert [(n.kind, n.opaque, n.length) for n in notifications(nic)] == [("rx", "new", 50)]
    assert [frame.tcp.ack for frame in nic.port.sent] == [IRS + 50]  # only its own ACK


def test_late_segment_of_removed_connection_never_reaches_the_next_tenant():
    # Identity is decided at admission. One pre-stage replica, so its
    # id-cache holds the old tenant's tuple -> index when the index is
    # re-let; the old peer's late segment must then miss like any unknown
    # tuple (and go to the control plane, which answers strays with RST),
    # not be bound to whoever holds the index now.
    nic = make_nic(PipelineConfig.pipelined_single_thread())
    dp = nic.datapath
    old, _old_rx = offload(nic, 5000, "old")
    dp._on_mac_rx(segment(5000, b"\xaa" * 8))
    dp.sim.run(until=dp.sim.now + 100_000)
    cache = dp.pre_stages[0].id_cache
    assert (LOCAL_IP, PEER_IP, 5000, PEER_PORT) in cache
    nic.remove_connection(old.index)
    new, new_rx = offload(nic, 5001, "new")
    assert new.index == old.index
    seen = len(notifications(nic))

    dp._on_mac_rx(segment(5000, b"EVIL"))  # the old tenant's four-tuple, at IRS
    dp.sim.run(until=dp.sim.now + 100_000)
    assert new_rx.region.read(0, 4) == bytes(4)  # b"EVIL" at the parent
    assert new.proto.ack == IRS  # IRS + 4 at the parent
    assert len(notifications(nic)) == seen
    assert len(dp.control_ring) == 1  # redirected, like any unknown tuple
    assert (LOCAL_IP, PEER_IP, 5000, PEER_PORT) not in cache
    # The index's tenant is served as ever, now from the cache.
    dp._on_mac_rx(segment(5001, b"\xbb" * 50))
    dp._on_mac_rx(segment(5001, b"\xbb" * 50))
    dp.sim.run(until=dp.sim.now + 100_000)
    assert new_rx.region.read(0, 51) == b"\xbb" * 50 + b"\x00"
    assert cache.lookup((LOCAL_IP, PEER_IP, 5001, PEER_PORT)) == (True, new.index)


def test_removal_during_the_dma_issue_charge_writes_no_byte():
    # The DMA stage checks the record at its entry and again once its
    # issue charge is done: a connection removed in between has its
    # buffers no more (a freed buffer may be another connection's), so
    # the work is retired, its ACK ticket released and its fence turn left.
    nic = make_nic()
    dp = nic.datapath
    record, rx = offload(nic, 5000, "gone")
    dp._on_mac_rx(segment(5000, b"\xaa" * 200))
    deadline = dp.sim.now + 100_000
    while not len(dp.dma_rx_fence):  # the DMA stage took the work and charges its issue
        assert dp.sim.now < deadline, "segment never reached the DMA stage"
        dp.sim.run(until=dp.sim.now + 1)
    assert dp.dma.ops == 0 and rx.region.read(0, 200) == bytes(200)
    nic.remove_connection(record.index)
    dp.sim.run(until=dp.sim.now + 100_000)
    assert rx.region.read(0, 200) == bytes(200)
    assert dp.dma.ops == 0 and notifications(nic) == []
    assert dp.nbi_gro.expected == dp.nbi_seqr.issued  # the ACK's ticket released
    assert len(dp.dma_rx_fence) == 0 and nic.port.sent == []
