"""Pipeline configuration: parallelism knobs and per-stage cycle costs.

The knobs correspond exactly to the rows of Table 3:

* ``pipelined=False`` — run-to-completion baseline: one FPC thread
  executes every stage (including DMA waits) for one segment at a time
  (one worker, so it takes ``n_flow_groups=1``).
* ``threads_per_fpc`` — intra-FPC hardware threading (1 vs 8).
* ``pre_replicas``/``post_replicas`` — replicated pre/post stages with
  sequencing + reordering for correctness.
* ``n_flow_groups`` — protocol islands (1 vs 4).

The cycle costs are the model's calibration surface: rough NFP micro-C
instruction counts, not measurements, and the benchmarks only rely on
their relative magnitudes. They are constants; segments always carry
the timestamp option and ECT(0).
"""

from repro.nfp.cam import crc32_tuple

# Per-operation FPC cycle costs for each pipeline stage, fixed in the
# program as the rest of the NFP model is.
PRE_VALIDATE = 95
PRE_IDENTIFY = 60
PRE_SUMMARY = 85
PRE_STEER = 25
PROTO_UPDATE = 115
PROTO_OOO_EXTRA = 130
PROTO_FAST_RETRANSMIT = 90
POST_ACK_PREPARE = 150
POST_STAMP = 55
POST_STATS = 60
POST_POSITION = 70
DMA_ISSUE = 70
CTX_NOTIFY = 80
CTX_DOORBELL_POLL = 40
HC_WINDOW_UPDATE = 70
TX_ALLOC = 50
TX_HEADER = 65
TX_SEQ = 85
SCHED_DEQUEUE = 45


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
        tracepoints_enabled=False,
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
        self.tracepoints_enabled = tracepoints_enabled
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
