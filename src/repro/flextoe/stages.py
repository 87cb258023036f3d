"""The five data-path pipeline stages as FPC programs (paper §3.1).

Each stage class is constructed with the shared :class:`FlexToeDatapath`
(rings, tables, engines) and exposes ``program(thread)`` — a generator
run on one FPC hardware thread — around ``process(thread, work)``, one
work through the stage (what the run-to-completion runner composes).
Replication = spawning the program on more FPCs/threads. Stage logic that is pure TCP lives in
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

    def program(self, thread):
        while True:
            work = yield self.dp.pre_in.get()
            yield from self.process(thread, work)

    def process(self, thread, work):
        """One work through this stage, by kind."""
        if work.kind == WORK_RX:
            return self._handle_rx(thread, work)
        if work.kind == WORK_TX:
            return self._handle_tx(thread, work)
        return self._handle_hc(thread, work)

    def _identify(self, work, conn_index):
        """Id: bind the work to its connection, once; the record rides it."""
        record = self.dp.conn_table.get(conn_index)
        if record is not None:
            work.record = record
            work.conn_index = conn_index
            work.flow_group = record.pre.flow_group
        return record

    # -- RX ----------------------------------------------------------------

    def _handle_rx(self, thread, work):
        dp = self.dp
        verdict = yield from self._admit_rx(thread, work)
        if verdict == ACTION_PASS:
            # Steer: in pipeline-sequence order through the GRO.
            yield thread.compute(PRE_STEER)
            dp.rx_gro.offer(work)
            return
        # Not admitted: release the RX-GRO ticket (§3.2: a stage dropping
        # a tagged segment must) before the frame goes where it is sent.
        dp.rx_gro.skip(work.pipeline_seq)
        if verdict == ACTION_TX:
            dp.stats["xdp_tx"] = dp.stats.get("xdp_tx", 0) + 1
            dp.nic_transmit_direct(work.frame)
        elif verdict == ACTION_REDIRECT:
            yield dp.control_ring.put(work.frame)

    def _admit_rx(self, thread, work):
        """Val / Id / Sum: ACTION_PASS for an admitted segment, else
        where the frame goes (DROP, TX bounce, REDIRECT to control)."""
        dp = self.dp
        frame = work.frame
        trace = dp.tracepoints
        yield thread.compute(PRE_VALIDATE + trace.hit(dp.sim.now, "pre", "rx.segment"))
        if dp.capture is not None:
            yield thread.compute(dp.capture.cost_cycles(frame))
            dp.capture.capture(dp.sim.now, "rx", frame)
        if dp.ingress_modules is not None and len(dp.ingress_modules):
            yield thread.compute(dp.ingress_modules.total_cost)
            action = dp.ingress_modules.run(frame, work)
            if action != ACTION_PASS:
                return action
        # Val: the checksum verified by the pre-processor rejects frames
        # whose payload was corrupted in flight (repro.faults marks them
        # ``csum_bad`` instead of recomputing a wrong 16-bit sum).
        if frame.get_meta("csum_bad"):
            self.csum_drops += 1
            return ACTION_DROP
        # Val: only established-connection data-path segments continue.
        if frame.tcp is None or frame.ip is None or not frame.tcp.is_data_path:
            return ACTION_REDIRECT
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
        if not hit:
            yield from thread.mem_read(LAT_IMEM)
            found, conn_index, _probes = dp.lookup_engine.lookup(four)
            yield thread.compute(PRE_IDENTIFY)
            if not found:
                return ACTION_REDIRECT
            self.id_cache.insert(four, conn_index)
        if self._identify(work, conn_index) is None:
            return ACTION_REDIRECT
        # Sum: build the header summary; later stages never see headers.
        yield thread.compute(PRE_SUMMARY)
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
        return ACTION_PASS

    # -- TX ----------------------------------------------------------------

    def _handle_tx(self, thread, work):
        dp = self.dp
        record = self._identify(work, work.conn_index)
        if record is None:
            return  # stale scheduler trigger: the work holds nothing yet
        # Alloc: a segment buffer from the island CTM pool (bounded).
        grant = yield dp.ctm_pool.request()
        yield thread.compute(TX_ALLOC)
        # Head: Ethernet and IP headers from pre-processor state.
        yield thread.compute(TX_HEADER)
        work.frame = dp.make_segment(record)
        work.frame.set_meta("ctm_grant", grant)
        yield thread.compute(PRE_STEER)
        yield dp.proto_rings[work.flow_group].put(work)

    # -- HC ----------------------------------------------------------------

    def _handle_hc(self, thread, work):
        dp = self.dp
        record = self._identify(work, work.hc.conn_index)
        yield thread.compute(PRE_STEER + dp.tracepoints.hit(dp.sim.now, "pre", "hc.descriptor"))
        if record is None or not record.active:
            dp.retire(work)
            return
        yield dp.proto_rings[work.flow_group].put(work)


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

    def program(self, thread):
        dp = self.dp
        ring = dp.proto_rings[self.flow_group]
        while True:
            work = yield ring.get()
            record = work.record  # the fences' key: a recycled index is another tenant
            if record in self._busy:
                self._busy[record].append(work)
                continue
            self._busy[record] = []
            yield from self._process_until_idle(thread, record, work)

    def _process_until_idle(self, thread, record, work):
        while True:
            yield from self.process(thread, work)
            pending = self._busy[record]
            if pending:
                work = pending.pop(0)
                continue
            del self._busy[record]
            return

    def process(self, thread, work):
        """One work through the atomic stage, handed on to its post ring."""
        dp = self.dp
        trace = dp.tracepoints
        record = work.record
        if not record.active:
            dp.retire(work)
            return
        # Fetch connection state (LMEM/CLS/EMEM hierarchy, §4.1): the
        # wait latency hides behind other hardware threads, but the
        # record-movement instructions occupy this FPC's issue slot.
        latency, issue = self.state_cache.access(work.conn_index)
        if latency > LAT_LMEM:
            yield from thread.mem_read(latency, issue_cycles=2 + issue)
            extra = trace.hit(dp.sim.now, "proto", "proto.state_miss")
            if extra:
                yield thread.compute(extra)
        state = record.proto
        if work.kind == WORK_RX:
            yield from self._process_rx(thread, work, state)
        elif work.kind == WORK_TX:
            done = yield from self._process_tx(thread, work, state)
            if not done:
                return
        else:
            yield from self._process_hc(thread, work, state)
        extra = trace.hit(dp.sim.now, "proto", "proto.critical_section")
        if extra:
            yield thread.compute(extra)
        self.processed[work.kind] += 1
        yield dp.post_rings[self.flow_group].put(work)

    def _process_rx(self, thread, work, state):
        dp = self.dp
        trace = dp.tracepoints
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
        yield thread.compute(cycles)
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

    def _process_tx(self, thread, work, state):
        dp = self.dp
        trace = dp.tracepoints
        result = proto_logic.process_tx(state, dp.config.mss)
        dp.observer.proto_changed(work.conn_index, state)
        yield thread.compute(TX_SEQ)
        if result is None:
            extra = trace.hit(dp.sim.now, "proto", "tx.stale_trigger")
            if extra:
                yield thread.compute(extra)
            dp.retire(work)
            # Refresh the scheduler so it stops triggering a dry flow.
            dp.scheduler.fs_update(work.conn_index, state.flight_limit())
            return False
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
        return True

    def _process_hc(self, thread, work, state):
        dp = self.dp
        snapshot = work.snapshot = proto_logic.process_hc(state, work.hc)
        dp.observer.proto_changed(work.conn_index, state)
        yield thread.compute(HC_WINDOW_UPDATE)
        if snapshot.send_ack:
            snapshot.nbi_seq = dp.nbi_seqr.assign(work)


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

    def program(self, thread):
        dp = self.dp
        ring = dp.post_rings[self.flow_group]
        while True:
            work = yield ring.get()
            # Per-connection order fence: replicated post threads finish
            # out of order (variable compute, stalls), but one connection's
            # works must enter dma_ring in protocol order — notification
            # order is delivery order for libTOE (§3.1.3). Pop order is
            # protocol order: the proto stage serializes per connection.
            turn = dp.post_fence.enter(work.record)
            emit = yield from self.process(thread, work)
            if turn.blocked():
                yield turn.prev
            if emit:
                yield dp.dma_ring.put(work)
            else:
                # Torn down (frees what it holds) or done here; the one exit
                # is also how an attached HB monitor learns it will not arrive.
                dp.retire(work)
            turn.leave()

    def _notify(self, work, kind, offset=0, length=0):
        """Stamp a notification with its connection's identity, once."""
        dp = self.dp
        post = work.record.post
        dp.tracepoints.hit(dp.sim.now, "post", "notify." + kind)
        return Notification(
            kind, post.opaque, work.conn_index, context_id=post.context_id,
            offset=offset, length=length, created_at=dp.sim.now,
        )

    def process(self, thread, work):
        """One work through this stage; true when the DMA stage has
        something of it to move (the caller emits it, or retires it)."""
        dp = self.dp
        trace = dp.tracepoints
        record = work.record
        snapshot = work.snapshot
        if not record.active:
            # Torn down since the protocol stage (churn makes it real):
            # nothing to emit, and the caller retires what is not emitted.
            return False
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
        yield thread.compute(cycles)
        if work.hc is not None:
            dp.release_descriptor(work)
        return bool(
            work.kind == WORK_TX or work.rx_trimmed_payload or work.ack_frame is not None or notifications
        )


class DmaStage:
    """Payload movement over PCIe, then NBI/context-queue handoff.

    Ordering rule (§3.1.3): payload DMA completes before either the peer
    ACK leaves the NIC or libTOE sees the notification."""

    STAGE_KIND = "dma"
    REPLICATED = True

    def __init__(self, dp, replica_id=0):
        self.dp = dp
        self.replica_id = replica_id

    def program(self, thread):
        dp = self.dp
        while True:
            work = yield dp.dma_ring.get()
            yield from self.process(thread, work)

    def _split_wrap(self, offset, length, size):
        """Circular-buffer split: one or two (offset, length) chunks."""
        if length <= 0:
            return []
        first = min(length, size - offset)
        chunks = [(offset, first)]
        if first < length:
            chunks.append((0, length - first))
        return chunks

    def process(self, thread, work):
        """One work's payload over PCIe, then its ACK and notifications."""
        dp = self.dp
        record = work.record
        if not record.active:
            # Torn down mid-pipeline: nothing of the segment may reach
            # host memory (the buffers may be another connection's now).
            dp.retire(work)
            return
        post = record.post
        if work.kind == WORK_RX:
            payload = work.rx_trimmed_payload
            # Per-connection completion fence: a segment's notification
            # (and ACK) may not overtake an earlier segment's still-
            # pending payload DMA — otherwise libTOE would see NOTIFY_RX
            # out of order and stitch the stream wrong (§3.1.3). DMA
            # retries (repro.faults DmaFlake) make this reordering real.
            turn = dp.dma_rx_fence.enter(record)
            if payload:
                yield thread.compute(DMA_ISSUE)
                dp.tracepoints.hit(dp.sim.now, "dma", "dma.payload_issue")
                events = []
                written = 0
                for offset, length in self._split_wrap(work.rx_offset, len(payload), post.rx_size):
                    if post.rx_region is not None:
                        post.rx_region.write(offset, payload[written : written + length])
                    written += length
                    events.append(dp.dma.issue(self.replica_id, length))
                for event in events:
                    yield event
            if turn.blocked():
                yield turn.prev
            # Payload is in host memory. Write-ahead rule (DESIGN §11):
            # a segment's ACK must not reach the wire before its
            # notification is host-visible, or a crash in between leaves
            # the peer believing bytes delivered that recovery never saw.
            # The ACK rides the last notification; ARX releases it after
            # nic_deliver, on the NBI ticket taken at the protocol stage.
            ack_frame = work.ack_frame
            if ack_frame is not None:
                ack_frame.pipeline_seq = work.pipeline_seq
            notifications = work.notify or ()
            if notifications and ack_frame is not None:
                notifications[-1].piggyback_ack = ack_frame
                ack_frame = None
            for notification in notifications:
                yield dp.ctx_ring.put(notification)
            if ack_frame is not None:
                dp.nbi_gro.offer(ack_frame)
            turn.leave()
        elif work.kind == WORK_TX:
            yield thread.compute(DMA_ISSUE)
            parts = []
            events = []
            for offset, length in self._split_wrap(work.tx_offset, work.tx_len, post.tx_size):
                if post.tx_region is not None:
                    parts.append(post.tx_region.read(offset, length))
                else:
                    parts.append(b"\x00" * length)
                events.append(dp.dma.issue(self.replica_id, length))
            for event in events:
                yield event
            frame = work.frame
            frame.payload = b"".join(parts)
            frame.tcp.options = TcpOptions(
                ts_val=now_us(dp.sim), ts_ecr=work.snapshot.echo_ts
            )
            frame.pipeline_seq = work.pipeline_seq
            dp.nbi_gro.offer(frame)
        else:
            # HC work carries no payload and (its protocol path never
            # acks, notifies or FINs) no notifications: it gets here only
            # when a window-update ACK must leave the NIC, on the NBI
            # ticket taken at the protocol stage.
            ack_frame = work.ack_frame
            if ack_frame is not None:
                ack_frame.pipeline_seq = work.pipeline_seq
                dp.nbi_gro.offer(ack_frame)


class NbiStage:
    """Drains the (reordered) NBI ring onto the wire."""

    STAGE_KIND = "nbi"
    REPLICATED = False

    def __init__(self, dp):
        self.dp = dp
        self.transmitted = 0

    def program(self, thread):
        dp = self.dp
        while True:
            frame = yield dp.nbi_ring.get()
            serial = None
            if dp.serial_lock is not None:
                serial = yield dp.serial_lock.request()
            if dp.capture is not None:
                yield thread.compute(dp.capture.cost_cycles(frame))
                dp.capture.capture(dp.sim.now, "tx", frame)
            self.transmitted += 1
            dp.mac.transmit(frame)
            dp.release_ctm(frame)
            if serial is not None:
                serial.release()


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

    def arx_program(self, thread):
        """NIC -> host notification path."""
        dp = self.dp
        while True:
            notification = yield dp.ctx_ring.get()
            turn = self.arx_fence.enter(notification.context_id)
            serial = None
            if dp.serial_lock is not None:
                serial = yield dp.serial_lock.request()
            yield thread.compute(CTX_NOTIFY)
            pair = dp.contexts.get(notification.context_id)
            yield dp.dma.issue(1, 32)
            if turn.blocked():
                yield turn.prev
            piggyback = notification.piggyback_ack
            notification.piggyback_ack = None
            if pair is not None:
                pair.nic_deliver(notification)
            if piggyback is not None:
                # Notification is host-visible: the ACK may leave now
                # (write-ahead rule; see the DMA stage).
                dp.nbi_gro.offer(piggyback)
            turn.leave()
            if serial is not None:
                serial.release()

    def atx_program(self, thread):
        """Host -> NIC doorbell/descriptor path."""
        dp = self.dp
        while True:
            yield dp.pcie.wait_doorbell("hc")
            yield thread.compute(CTX_DOORBELL_POLL)
            dp.tracepoints.hit(dp.sim.now, "ctx", "hc.doorbell")
            # Scan all contexts for outbound descriptors. Multiple
            # updates ride one doorbell, so fetch DMAs are batched
            # (§3.1.1) — one PCIe transaction per up to 16 descriptors.
            progress = True
            while progress:
                progress = False
                for pair in list(dp.contexts.values()):
                    if not pair.has_outbound:
                        continue
                    progress = True
                    # Descriptor buffers come from a bounded NIC pool;
                    # allocation failure pauses fetching (flow control).
                    grants = []
                    while len(grants) < 16 and pair.has_outbound:
                        grant = yield dp.descriptor_pool.request()
                        grants.append(grant)
                        if len(grants) >= len(pair.outbound):
                            break
                    batch = pair.nic_fetch_batch(max_batch=len(grants))
                    for grant in grants[len(batch):]:
                        grant.release()
                    serial = None
                    if dp.serial_lock is not None:
                        serial = yield dp.serial_lock.request()
                    yield dp.dma.issue(1, 32 * len(batch))
                    for grant in grants[: len(batch)]:
                        dp.hold_descriptor(grant)
                    for descriptor in batch:
                        work = SegWork(WORK_HC, hc=descriptor, born_at=dp.sim.now)
                        yield dp.pre_in.put(work)
                    if serial is not None:
                        serial.release()
