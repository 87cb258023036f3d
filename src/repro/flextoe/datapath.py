"""Data-path assembly: rings, sequencers, FPC assignment (paper Fig. 8).

The full deployment uses four *protocol islands* (one flow-group each:
4 pre FPCs + 1 protocol FPC + 4 post FPCs, 3 FPCs free for extension
modules) and one *service island* (context-queue FPCs ARX/ATX, the flow
scheduler SCH, DMA managers, NBI drain, GRO/BLM sequencing). Reduced
configurations (Table 3 ablation rows) claim proportionally fewer FPCs;
the run-to-completion baseline is the same assembly with every stage's
``process`` composed inline on a single FPC thread.

The pipeline's shape is declared once — ``STAGE_KIND`` / ``REPLICATED`` on
the stage classes, ``RINGS`` here (DESIGN §4) — and read by assembly,
:mod:`repro.analysis` and :mod:`repro.faults` alike.
It owns the ordering devices the stages share (two sequencer domains,
the post and DMA stages' per-connection fences) and the one early exit,
:meth:`FlexToeDatapath.retire`; teardown has no ordering state to forget.
"""

import functools
from collections import deque

from repro.analysis import sanitizer
from repro.flextoe.ctxq import ContextQueuePair
from repro.flextoe.descriptors import SegWork, WORK_RX, WORK_TX
from repro.flextoe.scheduler import CarouselScheduler
from repro.flextoe.seqr import KeyedFence, ReorderBuffer, Sequencer
from repro.flextoe.stages import CtxStage, DmaStage, NbiStage, PostStage, PreStage, ProtocolStage
from repro.flextoe.statecache import EmemStateCache, StateCache
from repro.flextoe.state import ConnectionTable, HeartbeatBoard, proto_hints
from repro.flextoe.tracing import TracepointRegistry
from repro.proto.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.proto.ip import ECN_ECT0, IPPROTO_TCP, Ipv4Header
from repro.proto.packet import Frame
from repro.proto.tcp import TcpHeader
from repro.sim import Resource, Store
from repro.nfp.fpc import Chain
from repro.nfp.queues import Ring

#: Slots per protocol/post CLS ring; host-control descriptors in flight;
#: period of each stage FPC's liveness beat.
RING_CAPACITY = 128
DESCRIPTOR_POOL = 256
HEARTBEAT_INTERVAL_NS = 50_000


class _Unobserved:
    """Default :attr:`FlexToeDatapath.observer`: nobody polls this NIC."""

    def proto_changed(self, index, proto):
        """Protocol logic just ran on connection ``index``'s ``proto``."""

    def cc_feedback(self, index):
        """The post stage just recorded congestion feedback for ``index``."""


class FlexToeDatapath:
    """The wired pipeline on a given NFP chip."""

    #: The ring graph, in pipeline order: ring attribute -> (stage kind
    #: that drains it, owner tokens that may enqueue). ``gro``/``seqr``
    #: are the reorder buffers' delivery processes. The HB monitor holds
    #: every enqueue to its ring's producers, and keeps two delivery-order
    #: contracts: per connection into dma_ring (§3.1.3) and per context
    #: into ctx_ring (notification order is libTOE's stream order).
    #: nbi_ring has none: wire-level reordering is TCP-tolerated, and the
    #: NBI GRO already restores ticket order.
    RINGS = {
        "pre_in": ("pre", ("ctx", "sch")),
        "proto_rings": ("proto", ("pre", "gro")),
        "post_rings": ("post", ("proto",)),
        "dma_ring": ("dma", ("post",)),
        "ctx_ring": ("ctx", ("dma",)),
        "nbi_ring": ("nbi", ("seqr",)),
    }

    def __init__(self, sim, chip, config, local_mac, local_ip, capture=None, ingress_modules=None, control_ring=None):
        self.sim = sim
        self.chip = chip
        self.config = config
        # The host's addresses, once for every connection: no row holds them.
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.mac = chip.mac
        self.pcie = chip.pcie
        self.dma = chip.dma
        self.lookup_engine = chip.lookup_engine
        self.conn_table = ConnectionTable(local_mac, local_ip)
        self.tracepoints = TracepointRegistry(enabled=config.tracepoints_enabled)
        self.capture = capture
        self.ingress_modules = ingress_modules
        self.contexts = {}
        self.stats = {}

        self.pre_in = Ring(sim, name="pre-in")
        self.proto_rings = [Ring(sim, RING_CAPACITY, "proto-in-%d" % g) for g in range(config.n_flow_groups)]
        self.post_rings = [Ring(sim, RING_CAPACITY, "post-in-%d" % g) for g in range(config.n_flow_groups)]
        self.dma_ring = Ring(sim, name="dma-in")
        self.ctx_ring = Ring(sim, name="ctx-in")
        self.nbi_ring = Ring(sim, name="nbi-in")
        # The control ring lives in host memory: a NIC facade that reboots
        # the datapath passes the same ring so the control plane's RX loop
        # survives the swap.
        self.control_ring = control_ring if control_ring is not None else Store(sim, name="to-control")

        # Sequencing domains (§3.2).
        self.rx_seqr = Sequencer()
        self.rx_gro = ReorderBuffer(sim, self._route_to_protocol, name="rx-gro")
        self.nbi_seqr = Sequencer()
        self.nbi_gro = ReorderBuffer(sim, self.nbi_ring.force_put, name="nbi-gro")

        # Bounded NIC resources.
        self.ctm_pool = Resource(sim, capacity=max(8, 64 * config.n_flow_groups), name="ctm-segments")
        # Run-to-completion baseline: one segment in the whole NIC at a
        # time — service programs contend on this lock (Table 3 row 1).
        self.serial_lock = None if config.pipelined else Resource(sim, capacity=1, name="rtc-serial")
        self.descriptor_pool = Resource(sim, capacity=DESCRIPTOR_POOL, name="hc-descriptors")
        self._held_descriptors = deque()

        # Per-connection fences (§3.1.3), keyed by the work's record:
        # works enter dma_ring in protocol order, RX notifications enter
        # ctx_ring in that order even when DMA ops complete out of order.
        self.post_fence = KeyedFence(sim)
        self.dma_rx_fence = KeyedFence(sim)

        # Flow scheduler (service island SCH FPC).
        self.scheduler = CarouselScheduler(sim, self.trigger_tx)

        # Stage objects.
        self.emem_state_cache = EmemStateCache(capacity_records=config.emem_cache_records)
        self.pre_stages = []
        self.protocol_stages = []
        self.post_stages = []
        self.dma_stages = []
        self.nbi_stage = NbiStage(self)
        self.ctx_stage = CtxStage(self)

        self.rx_frames_seen = 0

        #: stage kind -> [Fpc, ...]; lets the fault layer (repro.faults)
        #: target "stall a protocol FPC" without groping the islands.
        self.stage_fpcs = {}

        #: Every data-path chain (stage threads, GRO delivery, snapshot
        #: DMA), in start order. crash() kills them all.
        self.chains = []
        self.crashed = False
        #: Liveness is derived from the clock, not simulated: no chain
        #: beats, so an idle data path schedules nothing.
        self.heartbeats = HeartbeatBoard(sim, HEARTBEAT_INTERVAL_NS, self.stage_fpcs)
        #: Whoever polls connection state in NIC memory (the control plane
        #: installs itself): told the instant a poll would find something
        #: new, so that nothing has to be polled on a schedule.
        self.observer = _Unobserved()

        sanitizer.maybe_install_from_env()
        self._assign_fpcs()
        self.hb_monitor = None
        if sanitizer.enabled() and config.pipelined:
            # Differential check of the static happens-before model
            # against observed interleavings (passive ring taps; no sim
            # events, so golden digests are unchanged). RTC mode runs
            # every stage inline on one thread — nothing to order.
            from repro.analysis.hbmonitor import HbMonitor

            self.hb_monitor = HbMonitor(self)
        self.mac.rx_handler = self._on_mac_rx

    # -- construction ------------------------------------------------------

    def _guard(self, stage_kind, flow_group=None):
        """What wraps a chain's resume so that its steps carry ownership
        context when the runtime sanitizer is active (REPRO_SANITIZE=1)."""
        if sanitizer.enabled():
            return functools.partial(sanitizer.guard, stage=stage_kind, flow_group=flow_group)
        return None

    def _spawn(self, fpc, stage, program, name):
        """Run ``program`` (a first step) on ``fpc`` as ``stage``'s kind,
        and its flow group's if it has one (protocol and post stages)."""
        stage_kind = stage.STAGE_KIND
        fpcs = self.stage_fpcs.setdefault(stage_kind, [])
        if fpc not in fpcs:
            fpcs.append(fpc)
        thread = fpc.run(program, name=name, guard=self._guard(stage_kind, getattr(stage, "flow_group", None)))
        self.chains.append(thread)
        return thread

    def _spawn_gro_delivery(self, gro, name, stage_kind):
        """Run a reorder buffer's deliveries as a chain of their own.

        The GRO/BLM FPCs are real pipeline actors in the paper (§3.2);
        running their releases inline in whichever stage happened to
        complete the sequence hid them from the runtime sanitizer. The
        dedicated chain carries a ``gro``/``seqr`` owner token so
        REPRO_SANITIZE=1 attributes any illegal write it performs.
        """
        chain = Chain(self.sim, name)
        chain.wrap(self._guard(stage_kind))
        gro.deliver_by(chain)
        self.chains.append(chain)
        return chain

    def enable_state_snapshots(self, writer, interval_ns):
        """Periodically DMA volatile protocol fields to a host shadow.

        ``writer(conn_index, snapshot_dict)`` runs host-side; the shadow
        it fills survives a data-path crash and bounds the staleness of
        the fields recovery cannot derive from descriptor history
        (``remote_win``, timestamp echo state)."""
        table = self.conn_table
        rows = None  # the table as it stood when the DMA was issued

        def sleep(chain, _value=None):
            return chain.sleep(interval_ns, woke)

        def woke(chain, _value):
            nonlocal rows
            installed = len(table)
            if not installed:
                return sleep(chain)
            rows = table.items()
            return chain.wait(self.dma.issue(0, 16 * installed), copied)

        def copied(chain, _value):
            for index, slot in rows:
                if table.slot(index) == slot:  # not torn down during the DMA
                    writer(index, proto_hints(slot))
            return sleep(chain)

        chain = Chain(self.sim, "state-snapshot").start(sleep)
        self.chains.append(chain)
        return chain

    def crash(self):
        """Hard-stop the data path (fault injection / recovery quiesce).

        Kills every chain (no step of a dead chip runs again), freezes the
        heartbeat board and detaches the NBI ingress handler; NIC-internal state (rings,
        caches, connection table) is dead with the chip. Host-visible
        memory — context queue pairs, the control ring, payload
        buffers — is untouched. Idempotent."""
        if self.crashed:
            return
        self.crashed = True
        board = self.heartbeats
        board.frozen_at = self.sim.now
        if board.watcher is not None:  # wakes the recovery watchdog
            board.watcher.succeed(board)
        self.mac.rx_handler = None
        for chain in self.chains:
            if chain.is_alive:
                chain.kill()

    def rings(self, attr):
        """The ring objects behind one ``RINGS`` entry (one per flow
        group, or the one)."""
        rings = getattr(self, attr)
        return rings if isinstance(rings, list) else [rings]

    def _assign_fpcs(self):
        """Build the stage objects and spawn the service programs — the
        same in both execution structures. Pipelined, every stage object
        additionally gets its own FPC and all of its hardware threads;
        run-to-completion composes the first of each on one thread.
        Spawn and FPC-claim order fix event sequence numbers: behaviour."""
        config = self.config
        chip = self.chip
        pipelined = config.pipelined
        threads = config.threads_per_fpc
        if pipelined:
            # Run-to-completion polls the downstream rings synchronously
            # right after offering, so its GRO delivery stays inline.
            self._spawn_gro_delivery(self.rx_gro, "rx-gro-deliver", "gro")
            self._spawn_gro_delivery(self.nbi_gro, "nbi-gro-deliver", "seqr")

        def place(island, stages, stage, name):
            stages.append(stage)
            if pipelined:
                fpc = island.claim_fpc()
                for _ in range(threads):
                    self._spawn(fpc, stage, stage.program, name)

        # Protocol islands: flow-groups spread over the first N islands.
        for group in range(config.n_flow_groups):
            island = chip.islands[group % max(1, len(chip.islands) - 1)]
            cache = StateCache(
                lmem_entries=config.state_cache_lmem_entries,
                cls_entries=config.state_cache_cls_entries,
                emem_cache=self.emem_state_cache,
            )
            place(island, self.protocol_stages, ProtocolStage(self, group, cache), "proto-g%d" % group)
            for replica in range(config.pre_replicas):
                place(island, self.pre_stages, PreStage(self, replica), "pre-g%d-r%d" % (group, replica))
            for replica in range(config.post_replicas):
                place(island, self.post_stages, PostStage(self, group, replica), "post-g%d-r%d" % (group, replica))
        # Service island: DMA managers, NBI, context queues, scheduler.
        # The baseline fits its four FPCs into the first island.
        service = chip.islands[-1 if pipelined else 0]
        for replica in range(config.dma_replicas):
            place(service, self.dma_stages, DmaStage(self, replica), "dma-r%d" % replica)
        if not pipelined:
            # The whole data-path runs on this one thread, so it legitimately
            # carries protocol ownership for the single flow group.
            self._spawn(service.claim_fpc(), self.protocol_stages[0], self._run_to_completion, "run-to-completion")
        nbi_fpc = service.claim_fpc()
        for _ in range(max(1, threads // 2)):
            self._spawn(nbi_fpc, self.nbi_stage, self.nbi_stage.program, "nbi")
        ctx_fpc = service.claim_fpc()
        self._spawn(ctx_fpc, self.ctx_stage, self.ctx_stage.atx_program, "ctx-atx")
        for _ in range(max(1, threads - 1)):
            self._spawn(ctx_fpc, self.ctx_stage, self.ctx_stage.arx_program, "ctx-arx")
        self._spawn(service.claim_fpc(), self.scheduler, self.scheduler.program, "sch")

    def _run_to_completion(self, thread, _value=None):
        """Table 3 baseline: the whole TCP data-path on one FPC thread.

        Stage *logic* is reused; only the execution structure changes:
        one worker pulls from the pre-stage input and runs
        pre/protocol/post/DMA for each item to completion, waiting out
        every memory and PCIe latency inline, one segment in the NIC at
        a time (the service programs contend on the same lock, which a
        killed worker releases).
        """
        return thread.get(self.pre_in, self._rtc_take)

    def _rtc_take(self, thread, work):
        thread.work = work
        return thread.request(self.serial_lock, self._rtc_locked)

    def _rtc_locked(self, thread, grant):
        thread.held = grant
        return self.pre_stages[0].process(thread, thread.work, self._rtc_pre_done)

    def _rtc_pre_done(self, thread, _):
        admitted, work = self.proto_rings[0].try_get()
        if not admitted:
            return self._rtc_done(thread, None)
        return self.protocol_stages[0].process(thread, work, self._rtc_protocol_done)

    def _rtc_protocol_done(self, thread, _):
        processed, work = self.post_rings[0].try_get()
        if not processed:
            return self._rtc_done(thread, None)
        return self.post_stages[0].process(thread, work, self._rtc_post_done)

    def _rtc_post_done(self, thread, emit):
        # PostStage's own program owns the dma_ring hop and its fence;
        # one thread needs neither.
        if emit:
            return self.dma_stages[0].process(thread, thread.work, self._rtc_done)
        self.retire(thread.work)
        return self._rtc_done(thread, None)

    def _rtc_done(self, thread, _):
        grant, thread.held = thread.held, None
        grant.release()
        return self._run_to_completion(thread)

    # -- runtime entry points ----------------------------------------------

    def _on_mac_rx(self, frame):
        self.rx_frames_seen += 1
        work = SegWork(WORK_RX, frame=frame, born_at=self.sim.now)
        self.rx_seqr.assign(work)
        if self.pre_in.is_full:
            self.rx_gro.skip(work.pipeline_seq)
        else:
            self.pre_in.deliver(work)

    def _route_to_protocol(self, work):
        self.proto_rings[work.flow_group].force_put(work)

    def trigger_tx(self, conn_index):
        """The scheduler's TX trigger: a TX work enters the pre stage."""
        work = SegWork(WORK_TX, born_at=self.sim.now)
        work.conn_index = conn_index
        return self.pre_in.put(work)

    def make_segment(self, record, **tcp_fields):
        """Head: a segment of ``record``'s connection, Ethernet and IP
        headers from this NIC's addresses and the connection's
        pre-processor state, no payload yet."""
        pre = record.pre
        eth = EthernetHeader(dst=pre.peer_mac, src=self.local_mac, ethertype=ETHERTYPE_IPV4)
        ip = Ipv4Header(src=self.local_ip, dst=pre.peer_ip, proto=IPPROTO_TCP, ecn=ECN_ECT0)
        tcp = TcpHeader(pre.local_port, pre.remote_port, **tcp_fields)
        return Frame(eth, ip=ip, tcp=tcp, born_at=self.sim.now)

    def nic_transmit_direct(self, frame):
        """Bypass transmit for XDP_TX and control-plane frames."""
        self.mac.transmit(frame)

    # -- what a work holds, and the one early exit --------------------------

    def hold_descriptor(self, grant):
        self._held_descriptors.append(grant)

    def release_descriptor(self, work):
        """Return the buffer an HC work holds (``work.hc`` is the hold)."""
        work.hc = None
        if self._held_descriptors:
            self._held_descriptors.popleft().release()

    def release_ctm(self, frame):
        """Return a TX frame's CTM segment buffer, if it has one."""
        grant = frame.get_meta("ctm_grant")
        if grant is not None:
            grant.release()

    def retire(self, work):
        """The one early exit: a work that stops short of the pipeline's
        end (connection removed mid-flight, stale TX trigger, nothing to
        emit) frees what it still holds, here and nowhere else: HC
        descriptor buffer, NBI ordering ticket (unreleased, it stalls
        every later egress frame in the reorder buffer), CTM buffer."""
        if work.hc is not None:
            self.release_descriptor(work)
        snapshot = work.snapshot
        if snapshot is not None and snapshot.nbi_seq is not None:
            self.nbi_gro.skip(snapshot.nbi_seq)
        if work.frame is not None:
            self.release_ctm(work.frame)

    # -- host/control interfaces ---------------------------------------------

    def register_context(self, context_id, capacity=1024):
        pair = ContextQueuePair(self.sim, context_id, capacity=capacity)
        self.contexts[context_id] = pair
        if self.hb_monitor is not None:
            self.hb_monitor.watch_context(pair)
        return pair

    def adopt_context(self, pair):
        """Re-bind an existing (host-memory) queue pair after a reboot."""
        self.contexts[pair.context_id] = pair
        if self.hb_monitor is not None:
            self.hb_monitor.watch_context(pair)

    def post_hc(self, context_id, descriptor):
        """libTOE helper: append a descriptor and ring the doorbell."""
        pair = self.contexts[context_id]
        if not pair.post_hc(descriptor):
            return False
        self.pcie.ring()
        return True

    def install_connection(self, index, slot, four_tuple, crc):
        """Publish the row written at ``slot`` as connection ``index``:
        ``crc`` is the four-tuple's CRC-32, which the caller already
        computed to pick the row's flow group."""
        self.conn_table.put(index, slot)
        self.lookup_engine.insert(four_tuple, index, crc)

    def remove_connection(self, index):
        record = self.conn_table.get(index)
        if record is not None:
            self.conn_table.remove(index)
            self.lookup_engine.remove(record.four_tuple)
            self.scheduler.remove_flow(index)
        for stage in self.protocol_stages:
            stage.state_cache.invalidate(index)
        for stage in self.post_stages:
            stage.take_rtt_samples(index)
        return record

    def drain_rtt(self, record):
        """Aggregate per-replica RTT samples into the connection's EWMA.

        Replicated post instances accumulate (total, count) privately —
        ``rtt_est`` is an EWMA, so a shared read-modify-write would lose
        updates. The fold happens here, at context/control granularity
        (the paper's context stage is the serialization point toward the
        host), from a single site per poll.
        """
        total = 0
        count = 0
        for stage in self.post_stages:
            if stage.rtt_samples:
                stage_total, stage_count = stage.take_rtt_samples(record.index)
                total += stage_total
                count += stage_count
        if count:
            record.post.fold_rtt_samples(total, count)
