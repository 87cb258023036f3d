"""Pipeline configuration: parallelism knobs and per-stage cycle costs.

The knobs correspond exactly to the rows of Table 3:

* ``pipelined=False`` — run-to-completion baseline: one FPC thread
  executes every stage (including DMA waits) for one segment at a time
  (one worker, so it takes ``n_flow_groups=1``).
* ``threads_per_fpc`` — intra-FPC hardware threading (1 vs 8).
* ``pre_replicas``/``post_replicas`` — replicated pre/post stages with
  sequencing + reordering for correctness.
* ``n_flow_groups`` — protocol islands (1 vs 4).

Cycle costs are the model's calibration surface; they are rough NFP
micro-C instruction counts, not measurements, and the benchmarks only
rely on their relative magnitudes.
"""

from repro.nfp.cam import crc32_tuple


class StageCosts:
    """Per-operation FPC cycle costs for each pipeline stage."""

    def __init__(
        self,
        pre_validate=95,
        pre_identify=60,
        pre_summary=85,
        pre_steer=25,
        proto_update=115,
        proto_ooo_extra=130,
        proto_fast_retransmit=90,
        post_ack_prepare=150,
        post_stamp=55,
        post_stats=60,
        post_position=70,
        dma_issue=70,
        ctx_notify=80,
        ctx_doorbell_poll=40,
        hc_window_update=70,
        tx_alloc=50,
        tx_header=65,
        tx_seq=85,
        sched_dequeue=45,
    ):
        self.pre_validate = pre_validate
        self.pre_identify = pre_identify
        self.pre_summary = pre_summary
        self.pre_steer = pre_steer
        self.proto_update = proto_update
        self.proto_ooo_extra = proto_ooo_extra
        self.proto_fast_retransmit = proto_fast_retransmit
        self.post_ack_prepare = post_ack_prepare
        self.post_stamp = post_stamp
        self.post_stats = post_stats
        self.post_position = post_position
        self.dma_issue = dma_issue
        self.ctx_notify = ctx_notify
        self.ctx_doorbell_poll = ctx_doorbell_poll
        self.hc_window_update = hc_window_update
        self.tx_alloc = tx_alloc
        self.tx_header = tx_header
        self.tx_seq = tx_seq
        self.sched_dequeue = sched_dequeue


class PipelineConfig:
    """Data-path deployment configuration (replication is static, §3.3)."""

    def __init__(
        self,
        pipelined=True,
        threads_per_fpc=8,
        pre_replicas=4,
        post_replicas=4,
        n_flow_groups=4,
        dma_replicas=4,
        mss=1448,
        delayed_ack_segments=1,
        use_timestamps=True,
        use_ecn=True,
        tracepoints_enabled=False,
        costs=None,
        state_cache_lmem_entries=16,
        state_cache_cls_entries=512,
        emem_cache_records=16384,
    ):
        if n_flow_groups < 1:
            raise ValueError("need at least one flow group")
        if not pipelined and n_flow_groups != 1:
            # The one run-to-completion worker drains one protocol ring;
            # connections hashing to any other group would be black-holed.
            raise ValueError("run-to-completion (pipelined=False) needs n_flow_groups=1")
        self.pipelined = pipelined
        self.threads_per_fpc = threads_per_fpc
        self.pre_replicas = pre_replicas
        self.post_replicas = post_replicas
        self.n_flow_groups = n_flow_groups
        self.dma_replicas = dma_replicas
        self.mss = mss
        self.delayed_ack_segments = max(1, delayed_ack_segments)
        self.use_timestamps = use_timestamps
        self.use_ecn = use_ecn
        self.tracepoints_enabled = tracepoints_enabled
        self.costs = costs or StageCosts()
        self.state_cache_lmem_entries = state_cache_lmem_entries
        self.state_cache_cls_entries = state_cache_cls_entries
        self.emem_cache_records = emem_cache_records

    @classmethod
    def baseline_run_to_completion(cls):
        """Table 3 row 1: everything serial on one FPC thread.

        The monolithic program cannot pin per-stage state in local
        memory, so its connection-state caches are effectively absent
        (every access goes to EMEM), and all NIC service activity
        (descriptor fetch, notifications, NBI) serializes with segment
        processing."""
        return cls(
            pipelined=False,
            threads_per_fpc=1,
            pre_replicas=1,
            post_replicas=1,
            n_flow_groups=1,
            dma_replicas=1,
            state_cache_lmem_entries=1,
            state_cache_cls_entries=1,
        )

    @classmethod
    def pipelined_single_thread(cls):
        """Table 3 row 2: pipeline stages on dedicated FPCs, 1 thread each."""
        return cls(pipelined=True, threads_per_fpc=1, pre_replicas=1, post_replicas=1, n_flow_groups=1, dma_replicas=1)

    @classmethod
    def with_intra_fpc_parallelism(cls):
        """Table 3 row 3: + 8 hardware threads per FPC."""
        return cls(pipelined=True, threads_per_fpc=8, pre_replicas=1, post_replicas=1, n_flow_groups=1, dma_replicas=1)

    @classmethod
    def with_replicated_pre_post(cls):
        """Table 3 row 4: + replicated pre/post stages."""
        return cls(pipelined=True, threads_per_fpc=8, pre_replicas=4, post_replicas=4, n_flow_groups=1, dma_replicas=2)

    @classmethod
    def full(cls):
        """Table 3 row 5: + four flow-group islands (the default)."""
        return cls()

    def flow_group_of(self, four_tuple, crc=None):
        """hash(4-tuple) % n_flow_groups (paper Table 5: flow_group);
        ``crc`` is ``crc32_tuple(*four_tuple)`` when the caller has it."""
        if crc is None:
            crc = crc32_tuple(*four_tuple)
        return crc % self.n_flow_groups
