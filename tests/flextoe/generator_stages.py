"""The data path's FPC programs as the generator processes they were before
they became Step chains: the oracle ``test_stage_continuations.py`` runs
the chains against. Only the programs live here; the stage objects, the
assembly and the stage logic that does not wait are the data path's own."""

from collections import deque

from repro.flextoe import datapath, proto_logic, scheduler, seqr, stages
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
    SCHED_DEQUEUE,
    TX_ALLOC,
    TX_HEADER,
    TX_SEQ,
)
from repro.flextoe.descriptors import (
    NOTIFY_FIN,
    NOTIFY_RX,
    NOTIFY_TX_ACKED,
    HeaderSummary,
    ProtoSnapshot,
    SegWork,
    WORK_HC,
    WORK_RX,
    WORK_TX,
)
from repro.flextoe.module import ACTION_DROP, ACTION_PASS, ACTION_REDIRECT, ACTION_TX
from repro.flextoe.scheduler import INTERVAL_Q8_SHIFT
from repro.flextoe.stages import now_us
from repro.flextoe.state import atomic_add, proto_hints
from repro.nfp.fpc import ISSUE_CYCLES
from repro.nfp.memory import LAT_IMEM, LAT_LMEM
from repro.proto.tcp import FLAG_ACK, FLAG_ECE, FLAG_FIN, FLAG_PSH, TcpOptions
from repro.sim import Interrupt, Timeout
from repro.sim.resources import Hold


def compute(thread, cycles):
    """The event of executing ``cycles`` instructions on ``thread``'s FPC,
    holding its issue slot; the program yields it at once. No cycles wait
    for nothing."""
    fpc = thread.fpc
    if cycles <= 0:
        return fpc.sim._passed()
    return Hold(fpc.issue_slot, fpc.cycles_to_ns(cycles), cycles)


def mem_read(thread, latency_cycles, issue_cycles=ISSUE_CYCLES):
    """Read from a memory ``latency_cycles`` away: brief issue, then the
    wait with the issue slot released (another thread may run)."""
    yield compute(thread, issue_cycles)
    yield thread.sim.timeout(thread.fpc.cycles_to_ns(latency_cycles))


class PreStage(stages.PreStage):

    def program(self, thread):
        while True:
            work = yield self.dp.pre_in.get()
            yield from self.process(thread, work)

    def process(self, thread, work):
        if work.kind == WORK_RX:
            return self._handle_rx(thread, work)
        if work.kind == WORK_TX:
            return self._handle_tx(thread, work)
        return self._handle_hc(thread, work)

    def _handle_rx(self, thread, work):
        dp = self.dp
        verdict = yield from self._admit_rx(thread, work)
        if verdict == ACTION_PASS:
            yield compute(thread, PRE_STEER)
            dp.rx_gro.offer(work)
            return
        dp.rx_gro.skip(work.pipeline_seq)
        if verdict == ACTION_TX:
            dp.stats["xdp_tx"] = dp.stats.get("xdp_tx", 0) + 1
            dp.nic_transmit_direct(work.frame)
        elif verdict == ACTION_REDIRECT:
            yield dp.control_ring.put(work.frame)

    def _admit_rx(self, thread, work):
        dp = self.dp
        frame = work.frame
        trace = dp.tracepoints
        yield compute(thread, PRE_VALIDATE + trace.hit(dp.sim.now, "pre", "rx.segment"))
        if dp.capture is not None:
            yield compute(thread, dp.capture.cost_cycles(frame))
            dp.capture.capture(dp.sim.now, "rx", frame)
        if dp.ingress_modules is not None and len(dp.ingress_modules):
            yield compute(thread, dp.ingress_modules.total_cost)
            action = dp.ingress_modules.run(frame, work)
            if action != ACTION_PASS:
                return action
        if frame.get_meta("csum_bad"):
            self.csum_drops += 1
            return ACTION_DROP
        if frame.tcp is None or frame.ip is None or not frame.tcp.is_data_path:
            return ACTION_REDIRECT
        four = (frame.ip.dst, frame.ip.src, frame.tcp.dport, frame.tcp.sport)
        hit, conn_index = self.id_cache.lookup(four)
        if hit:
            tenant = dp.conn_table.get(conn_index)
            if tenant is None or tenant.four_tuple != four:
                self.id_cache.invalidate(four)
                hit = False
        if not hit:
            yield from mem_read(thread, LAT_IMEM)
            found, conn_index, _probes = dp.lookup_engine.lookup(four)
            yield compute(thread, PRE_IDENTIFY)
            if not found:
                return ACTION_REDIRECT
            self.id_cache.insert(four, conn_index)
        if self._identify(work, conn_index) is None:
            return ACTION_REDIRECT
        yield compute(thread, PRE_SUMMARY)
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

    def _handle_tx(self, thread, work):
        dp = self.dp
        record = self._identify(work, work.conn_index)
        if record is None:
            return
        grant = yield dp.ctm_pool.request()
        yield compute(thread, TX_ALLOC)
        yield compute(thread, TX_HEADER)
        work.frame = dp.make_segment(record)
        work.frame.set_meta("ctm_grant", grant)
        yield compute(thread, PRE_STEER)
        yield dp.proto_rings[work.flow_group].put(work)

    def _handle_hc(self, thread, work):
        dp = self.dp
        record = self._identify(work, work.hc.conn_index)
        yield compute(thread, PRE_STEER + dp.tracepoints.hit(dp.sim.now, "pre", "hc.descriptor"))
        if record is None or not record.active:
            dp.retire(work)
            return
        yield dp.proto_rings[work.flow_group].put(work)


class ProtocolStage(stages.ProtocolStage):

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
        dp = self.dp
        trace = dp.tracepoints
        record = work.record
        if not record.active:
            dp.retire(work)
            return
        latency, issue = self.state_cache.access(work.conn_index)
        if latency > LAT_LMEM:
            yield from mem_read(thread, latency, 2 + issue)
            extra = trace.hit(dp.sim.now, "proto", "proto.state_miss")
            if extra:
                yield compute(thread, extra)
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
            yield compute(thread, extra)
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
        yield compute(thread, cycles)
        if (
            snapshot.send_ack
            and dp.config.delayed_ack_segments > 1
            and not snapshot.dup_ack
            and not snapshot.was_ooo
            and not snapshot.fin_notified
        ):
            state.delack_cnt += 1
            if state.delack_cnt < dp.config.delayed_ack_segments:
                snapshot.send_ack = False
            else:
                state.delack_cnt = 0
        if snapshot.send_ack:
            snapshot.nbi_seq = dp.nbi_seqr.assign(work)
        work.frame = None

    def _process_tx(self, thread, work, state):
        dp = self.dp
        trace = dp.tracepoints
        result = proto_logic.process_tx(state, dp.config.mss)
        dp.observer.proto_changed(work.conn_index, state)
        yield compute(thread, TX_SEQ)
        if result is None:
            extra = trace.hit(dp.sim.now, "proto", "tx.stale_trigger")
            if extra:
                yield compute(thread, extra)
            dp.retire(work)
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
        snapshot.echo_ts = state.next_ts
        trace.hit(dp.sim.now, "proto", "tx.segment")
        snapshot.nbi_seq = dp.nbi_seqr.assign(work)
        return True

    def _process_hc(self, thread, work, state):
        dp = self.dp
        snapshot = work.snapshot = proto_logic.process_hc(state, work.hc)
        dp.observer.proto_changed(work.conn_index, state)
        yield compute(thread, HC_WINDOW_UPDATE)
        if snapshot.send_ack:
            snapshot.nbi_seq = dp.nbi_seqr.assign(work)


class PostStage(stages.PostStage):

    def program(self, thread):
        dp = self.dp
        ring = dp.post_rings[self.flow_group]
        while True:
            work = yield ring.get()
            turn = dp.post_fence.enter(work.record)
            emit = yield from self.process(thread, work)
            if turn.blocked():
                yield turn.prev
            if emit:
                yield dp.dma_ring.put(work)
            else:
                dp.retire(work)
            turn.leave()

    def process(self, thread, work):
        dp = self.dp
        trace = dp.tracepoints
        record = work.record
        snapshot = work.snapshot
        if not record.active:
            return False
        post = record.post
        cycles = POST_STATS
        if snapshot.acked_bytes > 0 or snapshot.fast_retransmit or snapshot.rtt_sample_ecr is not None:
            dp.observer.cc_feedback(work.conn_index)
        if snapshot.acked_bytes > 0:
            cycles += atomic_add(post, "cnt_ackb", snapshot.acked_bytes)
            if snapshot.ece:
                cycles += atomic_add(post, "cnt_ecnb", snapshot.acked_bytes)
        if snapshot.fast_retransmit:
            cycles += atomic_add(post, "cnt_fretx", 1, maximum=255)
            self.fast_retransmits += 1
        if snapshot.rtt_sample_ecr is not None:
            sample = (now_us(dp.sim) - snapshot.rtt_sample_ecr) & 0xFFFFFFFF
            if sample < 1_000_000:
                total, count = self.rtt_samples.get(work.conn_index, (0, 0))
                self.rtt_samples[work.conn_index] = (total + sample, count + 1)
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
        if work.kind == WORK_RX and snapshot.payload_dest_pos is not None:
            cycles += POST_POSITION
            work.rx_offset = snapshot.payload_dest_pos % post.rx_size
            work.rx_trimmed_payload = snapshot.payload
        if work.kind == WORK_TX and snapshot.tx is not None:
            cycles += POST_POSITION
            work.tx_offset = snapshot.tx.stream_pos % post.tx_size
            work.tx_len = snapshot.tx.length
        yield compute(thread, cycles)
        if work.hc is not None:
            dp.release_descriptor(work)
        return bool(
            work.kind == WORK_TX or work.rx_trimmed_payload or work.ack_frame is not None or notifications
        )


class DmaStage(stages.DmaStage):

    def program(self, thread):
        dp = self.dp
        while True:
            work = yield dp.dma_ring.get()
            yield from self.process(thread, work)

    def process(self, thread, work):
        dp = self.dp
        record = work.record
        if not record.active:
            dp.retire(work)
            return
        post = record.post
        if work.kind == WORK_RX:
            payload = work.rx_trimmed_payload
            turn = dp.dma_rx_fence.enter(record)
            if payload:
                yield compute(thread, DMA_ISSUE)
                if not record.active:
                    dp.retire(work)
                    turn.leave()
                    return
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
            yield compute(thread, DMA_ISSUE)
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
            ack_frame = work.ack_frame
            if ack_frame is not None:
                ack_frame.pipeline_seq = work.pipeline_seq
                dp.nbi_gro.offer(ack_frame)


class NbiStage(stages.NbiStage):

    def program(self, thread):
        dp = self.dp
        while True:
            frame = yield dp.nbi_ring.get()
            serial = None
            if dp.serial_lock is not None:
                serial = yield dp.serial_lock.request()
            if dp.capture is not None:
                yield compute(thread, dp.capture.cost_cycles(frame))
                dp.capture.capture(dp.sim.now, "tx", frame)
            self.transmitted += 1
            dp.mac.transmit(frame)
            dp.release_ctm(frame)
            if serial is not None:
                serial.release()


class CtxStage(stages.CtxStage):

    def arx_program(self, thread):
        dp = self.dp
        while True:
            notification = yield dp.ctx_ring.get()
            turn = self.arx_fence.enter(notification.context_id)
            serial = None
            if dp.serial_lock is not None:
                serial = yield dp.serial_lock.request()
            yield compute(thread, CTX_NOTIFY)
            pair = dp.contexts.get(notification.context_id)
            yield dp.dma.issue(1, 32)
            if turn.blocked():
                yield turn.prev
            piggyback = notification.piggyback_ack
            notification.piggyback_ack = None
            if pair is not None:
                pair.nic_deliver(notification)
            if piggyback is not None:
                dp.nbi_gro.offer(piggyback)
            turn.leave()
            if serial is not None:
                serial.release()

    def atx_program(self, thread):
        dp = self.dp
        while True:
            yield dp.pcie.wait_doorbell()
            yield compute(thread, CTX_DOORBELL_POLL)
            dp.tracepoints.hit(dp.sim.now, "ctx", "hc.doorbell")
            progress = True
            while progress:
                progress = False
                for pair in list(dp.contexts.values()):
                    if not pair.has_outbound:
                        continue
                    progress = True
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


class CarouselScheduler(scheduler.CarouselScheduler):
    def program(self, thread):
        sim = self.sim
        while True:
            entry = self._pop_due()
            if entry is None:
                self._wake = sim.event()
                deadline = self._next_wheel_deadline()
                if deadline is None:
                    yield self._wake
                else:
                    yield sim.any_of([self._wake, Timeout(sim, int(max(0, deadline - sim.now)))])
                self._wake = None
                continue
            entry.queued = False
            if entry.deficit <= 0:
                continue
            yield compute(thread, SCHED_DEQUEUE)
            burst = min(self.mss, entry.deficit)
            entry.deficit -= burst
            self.triggers_issued += 1
            yield self.trigger_tx(entry.conn_index)
            if entry.deficit > 0:
                if entry.interval_q8 > 0:
                    entry.next_deadline = max(entry.next_deadline, sim.now) + (
                        (burst * entry.interval_q8) >> INTERVAL_Q8_SHIFT
                    )
                self._enqueue(entry)


class ProcessDelivery(seqr.ReorderBuffer):
    """Releases delivered by a process woken through an event."""

    def use_process_delivery(self):
        self._chain = self  # releases wait in the outbox
        self._outbox = deque()
        self._wake = None

    def delivery_program(self):
        while True:
            while self._outbox:
                self.output(self._outbox.popleft())
            self._wake = self.sim.event()
            yield self._wake

    def _notify(self):
        wake = self._wake
        if wake is not None and not wake.triggered:
            self._wake = None
            wake.succeed()


#: Chain class -> the class whose programs are generators.
ORACLES = {
    cls.__bases__[0]: cls
    for cls in (PreStage, ProtocolStage, PostStage, DmaStage, NbiStage, CtxStage, CarouselScheduler)
}


class Datapath(datapath.FlexToeDatapath):
    """The data path, each program spawned as a process, as it was."""

    def _spawn(self, fpc, stage, program, name, flow_group=None):
        for obj in [self.scheduler, self.nbi_stage, self.ctx_stage] + self.pre_stages + self.protocol_stages + (
            self.post_stages + self.dma_stages
        ):
            obj.__class__ = ORACLES.get(type(obj), type(obj))
        fpcs = self.stage_fpcs.setdefault(stage.STAGE_KIND, [])
        if fpc not in fpcs:
            fpcs.append(fpc)
        program = getattr(program.__self__, program.__name__)
        thread = fpc._thread(name)
        self.chains.append(self.sim.process(self._killable(program(thread)), name=thread.name))
        return thread

    def _spawn_gro_delivery(self, gro, name, stage_kind):
        gro.__class__ = ProcessDelivery
        gro.use_process_delivery()
        process = self.sim.process(self._killable(gro.delivery_program()), name=name)
        self.chains.append(process)
        return process

    def _killable(self, generator):
        try:
            yield from generator
        except Interrupt:
            return


    def enable_state_snapshots(self, writer, interval_ns):

        def snapshot_loop():
            table = self.conn_table
            while True:
                yield self.sim.timeout(interval_ns)
                installed = len(table)
                if not installed:
                    continue
                rows = table.items()
                yield self.dma.issue(0, 16 * installed)
                for index, slot in rows:
                    if table.slot(index) == slot:
                        writer(index, proto_hints(slot))

        process = self.sim.process(self._killable(snapshot_loop()), name="state-snapshot")
        self.chains.append(process)
        return process


    def crash(self):
        if self.crashed:
            return
        self.crashed = True
        board = self.heartbeats
        board.frozen_at = self.sim.now
        if board.watcher is not None:
            board.watcher.succeed(board)
        self.mac.rx_handler = None
        for process in self.chains:
            if process.is_alive:
                process.interrupt("nic-crash")


    def _run_to_completion(self, thread):
        while True:
            work = yield self.pre_in.get()
            grant = yield self.serial_lock.request()
            try:
                yield from self._run_item(thread, work)
            finally:
                grant.release()


    def _run_item(self, thread, work):
        yield from self.pre_stages[0].process(thread, work)
        admitted, work = self.proto_rings[0].try_get()
        if not admitted:
            return
        yield from self.protocol_stages[0].process(thread, work)
        processed, work = self.post_rings[0].try_get()
        if not processed:
            return
        if (yield from self.post_stages[0].process(thread, work)):
            yield from self.dma_stages[0].process(thread, work)
        else:
            self.retire(work)
