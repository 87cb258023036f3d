"""The five data-path pipeline stages as FPC programs (paper §3.1).

Each stage class is constructed with the shared :class:`FlexToeDatapath`
(rings, tables, engines). A stage's program is its ordered list of steps,
run as a :class:`~repro.nfp.fpc.Chain` on one FPC hardware thread: each
step ends in the one wait that follows it — a compute charge
(``thread.charge``), a memory read, a ring get or put, a pool or lock
request, a DMA, a fence turn — naming the next step. ``program`` is the
first step (take a work from the stage's ring) and ``process(thread,
work, then)`` one work through the stage, ending in ``then``: what the
run-to-completion runner composes. A work's values between steps ride
the work or the thread's registers. Replication = starting the program on
more FPCs/threads. Stage logic that is pure TCP lives in
:mod:`repro.flextoe.proto_logic`; this module charges cycles, touches
memories, and moves work between rings.

Lifecycle contract (DESIGN.md §4): a work's identity is set once, at
admission (:meth:`PreStage._identify`, the only connection-table look-up
here); later stages use ``work.record`` and test ``record.active``. A
work that stops short of the pipeline's end leaves through
``dp.retire(work)`` and nowhere else.
"""

from repro.flextoe import proto_logic
from repro.flextoe.config import (
    CTX_DOORBELL_POLL,
    CTX_NOTIFY,
    DMA_ISSUE,
    HC_WINDOW_UPDATE,
    POST_ACK_PREPARE,
    POST_POSITION,
    POST_STAMP,
    POST_STATS,
    PRE_IDENTIFY,
    PRE_STEER,
    PRE_SUMMARY,
    PRE_VALIDATE,
    PROTO_FAST_RETRANSMIT,
    PROTO_OOO_EXTRA,
    PROTO_UPDATE,
    TX_ALLOC,
    TX_HEADER,
    TX_SEQ,
)
from repro.flextoe.descriptors import (
    NOTIFY_FIN,
    NOTIFY_RX,
    NOTIFY_TX_ACKED,
    HeaderSummary,
    Notification,
    ProtoSnapshot,
    SegWork,
    WORK_HC,
    WORK_RX,
    WORK_TX,
)
from repro.flextoe.module import ACTION_DROP, ACTION_PASS, ACTION_REDIRECT, ACTION_TX
from repro.flextoe.seqr import KeyedFence
from repro.flextoe.state import atomic_add
from repro.nfp.cam import Cam
from repro.nfp.fpc import ISSUE_CYCLES
from repro.nfp.memory import LAT_IMEM, LAT_LMEM
from repro.proto.tcp import FLAG_ACK, FLAG_ECE, FLAG_FIN, FLAG_PSH, TcpOptions


def now_us(sim):
    """Timestamp-option clock: microseconds of simulated time."""
    return (sim.now // 1000) & 0xFFFFFFFF


class PreStage:
    """Pre-processing: Val / Id / Sum / Steer, plus TX Alloc/Head and HC
    steering. Replicated freely; RX order restored by the GRO."""

    #: What stage this is — the anchors the data path spawns by, the
    #: sanitizer guards by and repro.analysis.stagelint reads (DESIGN §4).
    STAGE_KIND = "pre"
    REPLICATED = True

    def __init__(self, dp, replica_id=0):
        self.dp = dp
        self.replica_id = replica_id
        self.id_cache = Cam(capacity=128)  # direct-mapped lookup cache (§4.1)
        self.csum_drops = 0

    def program(self, thread, _value=None):
        return thread.get(self.dp.pre_in, self.process)

    def process(self, thread, work, then=None):
        """One work through this stage, by kind, then ``then`` (by
        default, the program's next work)."""
        thread.work = work
        thread.after = then or self.program
        if work.kind == WORK_RX:
            dp = self.dp
            return thread.charge(PRE_VALIDATE + dp.tracepoints.hit(dp.sim.now, "pre", "rx.segment"), self._rx_valid)
        if work.kind == WORK_TX:
            return self._tx(thread, work)
        return self._hc(thread, work)

    def _identify(self, work, conn_index):
        """Id: bind the work to its connection, once; the record rides it."""
        record = self.dp.conn_table.get(conn_index)
        if record is not None:
            work.record = record
            work.conn_index = conn_index
            work.flow_group = record.pre.flow_group
        return record

    # -- RX: Val / Id / Sum, then Steer ----------------------------------------

    def _rx_valid(self, thread, _):
        capture = self.dp.capture
        if capture is not None:
            return thread.charge(capture.cost_cycles(thread.work.frame), self._rx_captured)
        return self._rx_filter(thread)

    def _rx_captured(self, thread, _):
        self.dp.capture.capture(self.dp.sim.now, "rx", thread.work.frame)
        return self._rx_filter(thread)

    def _rx_filter(self, thread):
        modules = self.dp.ingress_modules
        if modules is not None and len(modules):
            return thread.charge(modules.total_cost, self._rx_filtered)
        return self._rx_lookup(thread)

    def _rx_filtered(self, thread, _):
        work = thread.work
        action = self.dp.ingress_modules.run(work.frame, work)
        if action != ACTION_PASS:
            return self._rx_refused(thread, action)
        return self._rx_lookup(thread)

    def _rx_lookup(self, thread):
        dp = self.dp
        frame = thread.work.frame
        # Val: the checksum verified by the pre-processor rejects frames
        # whose payload was corrupted in flight (repro.faults marks them
        # ``csum_bad`` instead of recomputing a wrong 16-bit sum).
        if frame.get_meta("csum_bad"):
            self.csum_drops += 1
            return self._rx_refused(thread, ACTION_DROP)
        # Val: only established-connection data-path segments continue.
        if frame.tcp is None or frame.ip is None or not frame.tcp.is_data_path:
            return self._rx_refused(thread, ACTION_REDIRECT)
        # Id: connection lookup (local CAM, then the IMEM engine).
        four = (frame.ip.dst, frame.ip.src, frame.tcp.dport, frame.tcp.sport)
        hit, conn_index = self.id_cache.lookup(four)
        if hit:
            tenant = dp.conn_table.get(conn_index)
            if tenant is None or tenant.four_tuple != four:
                # Torn down since it was cached, and the index perhaps
                # re-let: the cache says nothing about this tuple.
                self.id_cache.invalidate(four)
                hit = False
        if hit:
            return self._rx_bind(thread, conn_index)
        thread.aux = four
        return thread.read(LAT_IMEM, ISSUE_CYCLES, self._rx_read)

    def _rx_read(self, thread, _):
        found, conn_index, _probes = self.dp.lookup_engine.lookup(thread.aux)
        thread.aux = (thread.aux, conn_index) if found else None
        return thread.charge(PRE_IDENTIFY, self._rx_looked_up)

    def _rx_looked_up(self, thread, _):
        if thread.aux is None:
            return self._rx_refused(thread, ACTION_REDIRECT)
        four, conn_index = thread.aux
        thread.aux = None
        self.id_cache.insert(four, conn_index)
        return self._rx_bind(thread, conn_index)

    def _rx_bind(self, thread, conn_index):
        if self._identify(thread.work, conn_index) is None:
            return self._rx_refused(thread, ACTION_REDIRECT)
        return thread.charge(PRE_SUMMARY, self._rx_summarize)

    def _rx_summarize(self, thread, _):
        # Sum: build the header summary; later stages never see headers.
        work = thread.work
        frame = work.frame
        tcp = frame.tcp
        work.summary = HeaderSummary(
            seq=tcp.seq,
            ack=tcp.ack,
            flags=tcp.flags,
            window=tcp.window,
            payload_len=len(frame.payload),
            ts_val=tcp.options.ts_val,
            ts_ecr=tcp.options.ts_ecr,
            ce_marked=frame.ip.ce_marked,
        )
        # Steer: in pipeline-sequence order through the GRO.
        return thread.charge(PRE_STEER, self._rx_steered)

    def _rx_steered(self, thread, _):
        self.dp.rx_gro.offer(thread.work)
        return thread.after(thread, None)

    def _rx_refused(self, thread, verdict):
        # Not admitted: release the RX-GRO ticket (§3.2: a stage dropping
        # a tagged segment must) before the frame goes where it is sent.
        dp = self.dp
        work = thread.work
        dp.rx_gro.skip(work.pipeline_seq)
        if verdict == ACTION_TX:
            dp.stats["xdp_tx"] = dp.stats.get("xdp_tx", 0) + 1
            dp.nic_transmit_direct(work.frame)
        elif verdict == ACTION_REDIRECT:
            return thread.wait(dp.control_ring.put(work.frame), thread.after)
        return thread.after(thread, None)

    # -- TX: Alloc / Head ------------------------------------------------------

    def _tx(self, thread, work):
        if self._identify(work, work.conn_index) is None:
            return thread.after(thread, None)  # stale scheduler trigger: the work holds nothing yet
        # Alloc: a segment buffer from the island CTM pool (bounded).
        return thread.request(self.dp.ctm_pool, self._tx_buffer)

    def _tx_buffer(self, thread, grant):
        thread.aux = grant
        return thread.charge(TX_ALLOC, self._tx_allocated)

    def _tx_allocated(self, thread, _):
        # Head: Ethernet and IP headers from pre-processor state.
        return thread.charge(TX_HEADER, self._tx_headed)

    def _tx_headed(self, thread, _):
        work = thread.work
        work.frame = self.dp.make_segment(work.record)
        work.frame.set_meta("ctm_grant", thread.aux)
        thread.aux = None  # the frame holds the grant now
        return thread.charge(PRE_STEER, self._to_protocol)

    def _to_protocol(self, thread, _):
        work = thread.work
        return thread.put(self.dp.proto_rings[work.flow_group], work, thread.after)

    # -- HC --------------------------------------------------------------------

    def _hc(self, thread, work):
        dp = self.dp
        self._identify(work, work.hc.conn_index)
        return thread.charge(PRE_STEER + dp.tracepoints.hit(dp.sim.now, "pre", "hc.descriptor"), self._hc_steered)

    def _hc_steered(self, thread, _):
        record = thread.work.record
        if record is None or not record.active:
            self.dp.retire(thread.work)
            return thread.after(thread, None)
        return self._to_protocol(thread, None)


class ProtocolStage:
    """The atomic per-connection stage: one FPC per flow-group.

    Multiple hardware threads overlap *different* connections' state
    fetches; per-connection processing order is preserved with a busy
    map, keeping the stage atomic and in-order per connection while
    still hiding memory latency (the paper's design exactly)."""

    STAGE_KIND = "proto"
    REPLICATED = False  # one FPC per flow group

    def __init__(self, dp, flow_group, state_cache):
        self.dp = dp
        self.flow_group = flow_group
        self.state_cache = state_cache
        self._busy = {}
        self.processed = {WORK_RX: 0, WORK_TX: 0, WORK_HC: 0}

    def program(self, thread, _value=None):
        return thread.get(self.dp.proto_rings[self.flow_group], self._take)

    def _take(self, thread, work):
        record = work.record  # the busy map's key: a recycled index is another tenant
        if record in self._busy:
            self._busy[record].append(work)
            return self.program(thread)
        self._busy[record] = []
        return self.process(thread, work, self._next_of_record)

    def _next_of_record(self, thread, _):
        record = thread.work.record
        pending = self._busy[record]
        if pending:
            return self.process(thread, pending.pop(0), self._next_of_record)
        del self._busy[record]
        return self.program(thread)

    def process(self, thread, work, then):
        """One work through the atomic stage, handed on to its post ring,
        then ``then``."""
        thread.work = work
        thread.after = then
        record = work.record
        if not record.active:
            self.dp.retire(work)
            return thread.goto(then)
        # Fetch connection state (LMEM/CLS/EMEM hierarchy, §4.1): the
        # wait latency hides behind other hardware threads, but the
        # record-movement instructions occupy this FPC's issue slot.
        latency, issue = self.state_cache.access(work.conn_index)
        if latency > LAT_LMEM:
            return thread.read(latency, 2 + issue, self._missed)
        return self._fetched(thread, None)

    def _missed(self, thread, _):
        dp = self.dp
        extra = dp.tracepoints.hit(dp.sim.now, "proto", "proto.state_miss")
        return thread.charge(extra, self._fetched) if extra else self._fetched(thread, None)

    def _fetched(self, thread, _):
        dp = self.dp
        trace = dp.tracepoints
        work = thread.work
        state = work.record.proto
        if work.kind == WORK_RX:
            cycles = PROTO_UPDATE
            snapshot = work.snapshot = proto_logic.process_rx(state, work.summary, work.frame.payload)
            dp.observer.proto_changed(work.conn_index, state)
            if snapshot.was_ooo:
                cycles += PROTO_OOO_EXTRA
                cycles += trace.hit(dp.sim.now, "proto", "rx.out_of_order")
            if snapshot.dropped_ooo:
                cycles += trace.hit(dp.sim.now, "proto", "rx.ooo_drop")
            if snapshot.fast_retransmit:
                cycles += PROTO_FAST_RETRANSMIT
                cycles += trace.hit(dp.sim.now, "proto", "retransmit.fast")
            return thread.charge(cycles, self._rx_updated)
        if work.kind == WORK_TX:
            thread.aux = proto_logic.process_tx(state, proto_logic.MSS)
            dp.observer.proto_changed(work.conn_index, state)
            return thread.charge(TX_SEQ, self._tx_sequenced)
        snapshot = work.snapshot = proto_logic.process_hc(state, work.hc)
        dp.observer.proto_changed(work.conn_index, state)
        return thread.charge(HC_WINDOW_UPDATE, self._hc_updated)

    def _rx_updated(self, thread, _):
        dp = self.dp
        work = thread.work
        state = work.record.proto
        snapshot = work.snapshot
        if (
            snapshot.send_ack
            and dp.config.delayed_ack_segments > 1
            and not snapshot.dup_ack
            and not snapshot.was_ooo
            and not snapshot.fin_notified
        ):
            # Optional delayed-ACK variant (ablation only): FPCs lack
            # timers, so coalescing is purely count-based and the
            # default remains ACK-every-segment (paper §5.2).
            state.delack_cnt += 1
            if state.delack_cnt < dp.config.delayed_ack_segments:
                snapshot.send_ack = False
            else:
                state.delack_cnt = 0
        if snapshot.send_ack:
            # The ACK will leave the NIC: take its NBI ordering ticket
            # here, in protocol-processing order (§3.2, example 3).
            snapshot.nbi_seq = dp.nbi_seqr.assign(work)
        # The inbound frame is consumed here; drop the reference so the
        # payload is not retained past the one-shot access.
        work.frame = None
        return self._processed(thread)

    def _tx_sequenced(self, thread, _):
        dp = self.dp
        trace = dp.tracepoints
        work = thread.work
        state = work.record.proto
        result = thread.aux
        if result is None:
            return thread.charge(trace.hit(dp.sim.now, "proto", "tx.stale_trigger"), self._tx_stale)
        tcp = work.frame.tcp
        tcp.seq = result.seq
        tcp.ack = result.ack
        tcp.window = result.window
        tcp.flags = FLAG_ACK | (FLAG_PSH if result.length else 0) | (FLAG_FIN if result.fin else 0)
        snapshot = work.snapshot = ProtoSnapshot()
        snapshot.tx = result
        snapshot.fs_sendable = state.flight_limit()
        # Timestamp echo for the outgoing segment is sampled *here*, in
        # the atomic protocol stage — the DMA stage stamps headers but
        # must not read protocol state (Table 5 partitioning; a read at
        # DMA time would race the next RX's next_ts update).
        snapshot.echo_ts = state.next_ts
        trace.hit(dp.sim.now, "proto", "tx.segment")
        snapshot.nbi_seq = dp.nbi_seqr.assign(work)
        return self._processed(thread)

    def _tx_stale(self, thread, _):
        work = thread.work
        self.dp.retire(work)
        # Refresh the scheduler so it stops triggering a dry flow.
        self.dp.scheduler.fs_update(work.conn_index, work.record.proto.flight_limit())
        return thread.goto(thread.after)

    def _hc_updated(self, thread, _):
        work = thread.work
        if work.snapshot.send_ack:
            work.snapshot.nbi_seq = self.dp.nbi_seqr.assign(work)
        return self._processed(thread)

    def _processed(self, thread):
        dp = self.dp
        extra = dp.tracepoints.hit(dp.sim.now, "proto", "proto.critical_section")
        return thread.charge(extra, self._to_post) if extra else self._to_post(thread, None)

    def _to_post(self, thread, _):
        work = thread.work
        self.processed[work.kind] += 1
        return thread.put(self.dp.post_rings[self.flow_group], work, thread.after)


class PostStage:
    """Post-processing: Ack / Stamp / Stats / Pos, FS updates, and
    notification allocation. Replicated freely (read-only app state)."""

    STAGE_KIND = "post"
    REPLICATED = True

    def __init__(self, dp, flow_group, replica_id=0):
        self.dp = dp
        self.flow_group = flow_group
        self.replica_id = replica_id
        self.acks_built = 0
        # Cumulative (never reset), unlike post.cnt_fretx which the
        # congestion-control stats drain consumes and clears.
        self.fast_retransmits = 0
        # conn_index -> (total_us, count): this replica's private RTT
        # sample accumulator. rtt_est is an EWMA — not commutative — so
        # replicas must not read-modify-write it; the datapath drains
        # these into PostprocState.fold_rtt_samples at poll time.
        self.rtt_samples = {}

    def take_rtt_samples(self, conn_index):
        """Drain this replica's (total_us, count) RTT accumulator."""
        return self.rtt_samples.pop(conn_index, (0, 0))

    def program(self, thread, _value=None):
        return thread.get(self.dp.post_rings[self.flow_group], self._take)

    def _take(self, thread, work):
        # Per-connection order fence: replicated post threads finish
        # out of order (variable compute, stalls), but one connection's
        # works must enter dma_ring in protocol order — notification
        # order is delivery order for libTOE (§3.1.3). Pop order is
        # protocol order: the proto stage serializes per connection.
        thread.turn = self.dp.post_fence.enter(work.record)
        return self.process(thread, work, self._fence)

    def _fence(self, thread, emit):
        thread.aux = emit
        if thread.turn.blocked():
            return thread.wait(thread.turn.prev, self._emit)
        return self._emit(thread, None)

    def _emit(self, thread, _):
        if thread.aux:
            return thread.put(self.dp.dma_ring, thread.work, self._left)
        # Torn down (frees what it holds) or done here; the one exit is
        # also how an attached HB monitor learns it will not arrive.
        self.dp.retire(thread.work)
        return self._left(thread, None)

    def _left(self, thread, _):
        thread.turn.leave()
        return self.program(thread)

    def _notify(self, work, kind, offset=0, length=0):
        """Stamp a notification with its connection's identity, once."""
        dp = self.dp
        post = work.record.post
        dp.tracepoints.hit(dp.sim.now, "post", "notify." + kind)
        return Notification(
            kind, post.opaque, work.conn_index, context_id=post.context_id,
            offset=offset, length=length, created_at=dp.sim.now,
        )

    def process(self, thread, work, then):
        """One work through this stage, then ``then(thread, emit)``: emit
        is true when the DMA stage has something of it to move (the caller
        emits it, or retires it)."""
        thread.work = work
        thread.after = then
        dp = self.dp
        trace = dp.tracepoints
        record = work.record
        snapshot = work.snapshot
        if not record.active:
            # Torn down since the protocol stage (churn makes it real):
            # nothing to emit, and the caller retires what is not emitted.
            return then(thread, False)
        post = record.post
        cycles = POST_STATS
        # Stats: congestion-control counters, read by the control plane.
        # Counters are commutative and go through the atomic-add engine
        # (declared in state.atomic()); replicated post instances may
        # update them concurrently without losing increments.
        if snapshot.acked_bytes > 0 or snapshot.fast_retransmit or snapshot.rtt_sample_ecr is not None:
            dp.observer.cc_feedback(work.conn_index)  # the next poll has something to read
        if snapshot.acked_bytes > 0:
            cycles += atomic_add(post, "cnt_ackb", snapshot.acked_bytes)
            if snapshot.ece:
                cycles += atomic_add(post, "cnt_ecnb", snapshot.acked_bytes)
        if snapshot.fast_retransmit:
            cycles += atomic_add(post, "cnt_fretx", 1, maximum=255)
            self.fast_retransmits += 1
        if snapshot.rtt_sample_ecr is not None:
            sample = (now_us(dp.sim) - snapshot.rtt_sample_ecr) & 0xFFFFFFFF
            if sample < 1_000_000:  # discard absurd samples (wrap)
                # EWMA is not commutative: accumulate privately per
                # replica; drained at context-stage granularity.
                total, count = self.rtt_samples.get(work.conn_index, (0, 0))
                self.rtt_samples[work.conn_index] = (total + sample, count + 1)
        # FS: flow-scheduler refresh (NIC-internal memory write).
        if snapshot.fs_sendable is not None:
            dp.scheduler.fs_update(work.conn_index, snapshot.fs_sendable)
        notifications = work.notify = []
        if snapshot.acked_bytes > 0:
            notifications.append(self._notify(work, NOTIFY_TX_ACKED, length=snapshot.acked_bytes))
        if snapshot.notify_rx_len:
            offset = snapshot.notify_rx_pos % post.rx_size
            notifications.append(self._notify(work, NOTIFY_RX, offset, snapshot.notify_rx_len))
        if snapshot.fin_notified:
            notifications.append(self._notify(work, NOTIFY_FIN))
        # Ack / Stamp: the acknowledgment segment (RX and window updates)
        # and its timestamp option.
        if snapshot.send_ack:
            cycles += POST_ACK_PREPARE + POST_STAMP
            work.ack_frame = dp.make_segment(
                record,
                seq=snapshot.ack_seq,
                ack=snapshot.ack_ack,
                flags=FLAG_ACK | (FLAG_ECE if snapshot.ece else 0),
                window=snapshot.window,
                options=TcpOptions(ts_val=now_us(dp.sim), ts_ecr=snapshot.echo_ts or 0),
            )
            self.acks_built += 1
            trace.hit(dp.sim.now, "post", "ack.dup_sent" if snapshot.dup_ack else "ack.sent")
        # Pos: physical placement for the DMA stage.
        if work.kind == WORK_RX and snapshot.payload_dest_pos is not None:
            cycles += POST_POSITION
            work.rx_offset = snapshot.payload_dest_pos % post.rx_size
            work.rx_trimmed_payload = snapshot.payload
        if work.kind == WORK_TX and snapshot.tx is not None:
            cycles += POST_POSITION
            work.tx_offset = snapshot.tx.stream_pos % post.tx_size
            work.tx_len = snapshot.tx.length
        return thread.charge(cycles, self._posted)

    def _posted(self, thread, _):
        work = thread.work
        if work.hc is not None:
            self.dp.release_descriptor(work)
        return thread.after(thread, bool(
            work.kind == WORK_TX or work.rx_trimmed_payload or work.ack_frame is not None or work.notify
        ))


class DmaStage:
    """Payload movement over PCIe, then NBI/context-queue handoff.

    Ordering rule (§3.1.3): payload DMA completes before either the peer
    ACK leaves the NIC or libTOE sees the notification."""

    STAGE_KIND = "dma"
    REPLICATED = True

    def __init__(self, dp, replica_id=0):
        self.dp = dp
        self.replica_id = replica_id

    def program(self, thread, _value=None):
        return thread.get(self.dp.dma_ring, self.process)

    def _split_wrap(self, offset, length, size):
        """Circular-buffer split: one or two (offset, length) chunks."""
        if length <= 0:
            return []
        first = min(length, size - offset)
        chunks = [(offset, first)]
        if first < length:
            chunks.append((0, length - first))
        return chunks

    def process(self, thread, work, then=None):
        """One work's payload over PCIe, then its ACK and notifications,
        then ``then`` (by default, the program's next work)."""
        thread.work = work
        then = thread.after = then or self.program
        dp = self.dp
        record = work.record
        if not record.active:
            # Torn down mid-pipeline: nothing of the segment may reach
            # host memory (the buffers may be another connection's now).
            dp.retire(work)
            return then(thread, None)
        if work.kind == WORK_RX:
            # Per-connection completion fence: a segment's notification
            # (and ACK) may not overtake an earlier segment's still-
            # pending payload DMA — otherwise libTOE would see NOTIFY_RX
            # out of order and stitch the stream wrong (§3.1.3). DMA
            # retries (repro.faults DmaFlake) make this reordering real.
            thread.turn = dp.dma_rx_fence.enter(record)
            if work.rx_trimmed_payload:
                return thread.charge(DMA_ISSUE, self._rx_issue)
            return self._rx_fence(thread, None)
        if work.kind == WORK_TX:
            return thread.charge(DMA_ISSUE, self._tx_issue)
        # HC work carries no payload and (its protocol path never acks,
        # notifies or FINs) no notifications: it gets here only when a
        # window-update ACK must leave the NIC, on the NBI ticket taken
        # at the protocol stage.
        ack_frame = work.ack_frame
        if ack_frame is not None:
            ack_frame.pipeline_seq = work.pipeline_seq
            dp.nbi_gro.offer(ack_frame)
        return then(thread, None)

    def _rx_issue(self, thread, _):
        dp = self.dp
        work = thread.work
        record = work.record
        if not record.active:
            # Torn down during the issue charge: the buffers may be
            # another connection's by now, as at the entry check.
            dp.retire(work)
            thread.turn.leave()
            return thread.after(thread, None)
        dp.tracepoints.hit(dp.sim.now, "dma", "dma.payload_issue")
        post = record.post
        payload = work.rx_trimmed_payload
        events = []
        written = 0
        for offset, length in self._split_wrap(work.rx_offset, len(payload), post.rx_size):
            if post.rx_region is not None:
                post.rx_region.write(offset, payload[written : written + length])
            written += length
            events.append(dp.dma.issue(self.replica_id, length))
        return thread.wait_all(events, self._rx_fence)

    def _rx_fence(self, thread, _):
        if thread.turn.blocked():
            return thread.wait(thread.turn.prev, self._rx_deliver)
        return self._rx_deliver(thread, None)

    def _rx_deliver(self, thread, _):
        # Payload is in host memory. Write-ahead rule (DESIGN §11):
        # a segment's ACK must not reach the wire before its
        # notification is host-visible, or a crash in between leaves
        # the peer believing bytes delivered that recovery never saw.
        # The ACK rides the last notification; ARX releases it after
        # nic_deliver, on the NBI ticket taken at the protocol stage.
        work = thread.work
        ack_frame = work.ack_frame
        if ack_frame is not None:
            ack_frame.pipeline_seq = work.pipeline_seq
        notifications = work.notify or ()
        if notifications and ack_frame is not None:
            notifications[-1].piggyback_ack = ack_frame
            ack_frame = None
        thread.aux = ack_frame
        thread.items = notifications
        thread.n = 0
        return self._rx_notify(thread, None)

    def _rx_notify(self, thread, _):
        n = thread.n
        if n < len(thread.items):
            thread.n = n + 1
            return thread.put(self.dp.ctx_ring, thread.items[n], self._rx_notify)
        if thread.aux is not None:
            self.dp.nbi_gro.offer(thread.aux)
        thread.turn.leave()
        return thread.after(thread, None)

    def _tx_issue(self, thread, _):
        dp = self.dp
        work = thread.work
        post = work.record.post
        parts = thread.aux = []
        events = []
        for offset, length in self._split_wrap(work.tx_offset, work.tx_len, post.tx_size):
            if post.tx_region is not None:
                parts.append(post.tx_region.read(offset, length))
            else:
                parts.append(b"\x00" * length)
            events.append(dp.dma.issue(self.replica_id, length))
        return thread.wait_all(events, self._tx_moved)

    def _tx_moved(self, thread, _):
        dp = self.dp
        work = thread.work
        frame = work.frame
        frame.payload = b"".join(thread.aux)
        thread.aux = None  # the parts are the frame's now
        frame.tcp.options = TcpOptions(
            ts_val=now_us(dp.sim), ts_ecr=work.snapshot.echo_ts
        )
        frame.pipeline_seq = work.pipeline_seq
        dp.nbi_gro.offer(frame)
        return thread.after(thread, None)


class NbiStage:
    """Drains the (reordered) NBI ring onto the wire."""

    STAGE_KIND = "nbi"
    REPLICATED = False

    def __init__(self, dp):
        self.dp = dp
        self.transmitted = 0

    def program(self, thread, _value=None):
        return thread.get(self.dp.nbi_ring, self._take)

    def _take(self, thread, frame):
        thread.work = frame
        if self.dp.serial_lock is not None:
            return thread.request(self.dp.serial_lock, self._serialized)
        return self._serialized(thread, None)

    def _serialized(self, thread, serial):
        thread.serial = serial
        capture = self.dp.capture
        if capture is not None:
            return thread.charge(capture.cost_cycles(thread.work), self._captured)
        return self._transmit(thread, None)

    def _captured(self, thread, _):
        self.dp.capture.capture(self.dp.sim.now, "tx", thread.work)
        return self._transmit(thread, None)

    def _transmit(self, thread, _):
        dp = self.dp
        frame = thread.work
        self.transmitted += 1
        dp.mac.transmit(frame)
        dp.release_ctm(frame)
        if thread.serial is not None:
            thread.serial.release()
        return self.program(thread)


class CtxStage:
    """Context-queue FPCs: ARX (notifications to host) and ATX (doorbells
    to HC work)."""

    STAGE_KIND = "ctx"
    REPLICATED = True  # several ARX hardware threads drain ctx_ring

    def __init__(self, dp):
        self.dp = dp
        # Per-context delivery fence: several ARX hardware threads drain
        # ctx_ring, so a delayed descriptor DMA (repro.faults DmaFlake)
        # would otherwise let a later notification overtake an earlier
        # one within the same context queue.
        self.arx_fence = KeyedFence(dp.sim)

    # -- ARX: NIC -> host notifications ----------------------------------------

    def arx_program(self, thread, _value=None):
        return thread.get(self.dp.ctx_ring, self._arx_take)

    def _arx_take(self, thread, notification):
        thread.work = notification
        thread.turn = self.arx_fence.enter(notification.context_id)
        if self.dp.serial_lock is not None:
            return thread.request(self.dp.serial_lock, self._arx_serialized)
        return self._arx_serialized(thread, None)

    def _arx_serialized(self, thread, serial):
        thread.serial = serial
        return thread.charge(CTX_NOTIFY, self._arx_charged)

    def _arx_charged(self, thread, _):
        dp = self.dp
        thread.aux = dp.contexts.get(thread.work.context_id)
        return thread.wait(dp.dma.issue(1, 32), self._arx_fence)

    def _arx_fence(self, thread, _):
        if thread.turn.blocked():
            return thread.wait(thread.turn.prev, self._arx_deliver)
        return self._arx_deliver(thread, None)

    def _arx_deliver(self, thread, _):
        notification = thread.work
        piggyback = notification.piggyback_ack
        notification.piggyback_ack = None
        if thread.aux is not None:
            thread.aux.nic_deliver(notification)
        if piggyback is not None:
            # Notification is host-visible: the ACK may leave now
            # (write-ahead rule; see the DMA stage).
            self.dp.nbi_gro.offer(piggyback)
        thread.turn.leave()
        if thread.serial is not None:
            thread.serial.release()
        return self.arx_program(thread)

    # -- ATX: host -> NIC doorbells and descriptors ----------------------------

    def atx_program(self, thread, _value=None):
        return thread.wait(self.dp.pcie.wait_doorbell(), self._atx_rung)

    def _atx_rung(self, thread, _):
        return thread.charge(CTX_DOORBELL_POLL, self._atx_polled)

    def _atx_polled(self, thread, _):
        dp = self.dp
        dp.tracepoints.hit(dp.sim.now, "ctx", "hc.doorbell")
        # Scan all contexts for outbound descriptors. Multiple updates
        # ride one doorbell, so fetch DMAs are batched (§3.1.1) — one
        # PCIe transaction per up to 16 descriptors.
        return self._atx_scan(thread)

    def _atx_scan(self, thread):
        """One pass over the contexts; another while a pass found work."""
        thread.items = list(self.dp.contexts.values())
        thread.n = 0
        thread.found = False
        return self._atx_next(thread, None)

    def _atx_next(self, thread, _):
        pairs = thread.items
        while thread.n < len(pairs):
            pair = pairs[thread.n]
            thread.n += 1
            if pair.has_outbound:
                thread.found = True
                thread.work = pair
                # Descriptor buffers come from a bounded NIC pool;
                # allocation failure pauses fetching (flow control).
                thread.aux = []
                return self._atx_grant(thread)
        if thread.found:
            return self._atx_scan(thread)
        return self.atx_program(thread)

    def _atx_grant(self, thread):
        if len(thread.aux) < 16 and thread.work.has_outbound:
            return thread.request(self.dp.descriptor_pool, self._atx_granted)
        return self._atx_fetch(thread)

    def _atx_granted(self, thread, grant):
        grants = thread.aux
        grants.append(grant)
        if len(grants) >= len(thread.work.outbound):
            return self._atx_fetch(thread)
        return self._atx_grant(thread)

    def _atx_fetch(self, thread):
        grants = thread.aux
        batch = thread.batch = thread.work.nic_fetch_batch(max_batch=len(grants))
        for grant in grants[len(batch):]:
            grant.release()
        if self.dp.serial_lock is not None:
            return thread.request(self.dp.serial_lock, self._atx_serialized)
        return self._atx_serialized(thread, None)

    def _atx_serialized(self, thread, serial):
        thread.serial = serial
        return thread.wait(self.dp.dma.issue(1, 32 * len(thread.batch)), self._atx_fetched)

    def _atx_fetched(self, thread, _):
        for grant in thread.aux[: len(thread.batch)]:
            self.dp.hold_descriptor(grant)
        return self._atx_enqueue(thread, None)

    def _atx_enqueue(self, thread, _):
        dp = self.dp
        if thread.batch:
            work = SegWork(WORK_HC, hc=thread.batch.pop(0), born_at=dp.sim.now)
            return thread.put(dp.pre_in, work, self._atx_enqueue)
        if thread.serial is not None:
            thread.serial.release()
        return self._atx_next(thread, None)
