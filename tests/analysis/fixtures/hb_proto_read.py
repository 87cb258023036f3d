"""Regression fixture: cross-stage protocol-state read (hb-race).

A DMA stage that samples ``record.proto.next_ts`` while stamping the
outgoing header — the timestamp-echo bug. The protocol stage
updates ``next_ts`` on every received segment, and no happens-before
edge orders a DMA replica processing segment k against the protocol
stage processing segment k+1 of the same connection, so the read races.
The fix snapshots the value in the atomic stage (``snapshot.echo_ts``).
The hb lint must report exactly one ``hb-race``.

Not imported at runtime: parsed by repro.analysis.stagelint in tests
alongside the real data-path sources (which provide the proto writer).
"""


class StaleEchoDmaStage:
    """DmaStage reading the TCP machine instead of the work snapshot."""

    STAGE_KIND = "dma"
    REPLICATED = True

    def __init__(self, dp, replica_id=0):
        self.dp = dp
        self.replica_id = replica_id

    def program(self, thread):
        dp = self.dp
        while True:
            work = yield dp.dma_ring.get()
            record = work.record
            if not record.active:
                dp.retire(work)
                continue
            frame = work.frame
            # BUG: protocol-owned state read outside the atomic stage.
            frame.ts_ecr = record.proto.next_ts
            dp.nbi_gro.offer(frame)
