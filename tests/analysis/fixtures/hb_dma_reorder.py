"""Regression fixture: the PR-2 NOTIFY_RX reordering bug, statically.

A DMA stage that emits notifications into ``ctx_ring`` *without* the
``dma_rx_fence`` turn. With replicas and variable DMA latency, a later
segment's notification overtakes an earlier one and libTOE stitches the
receive stream wrong — the exact bug the per-connection completion
fence was introduced to fix. The hb lint must report exactly one
``unfenced-ordered-emit`` at the ``ctx_ring.put`` site.

Not imported at runtime: parsed by repro.analysis.hblint in tests.
"""


class BrokenDmaStage:
    """DmaStage with the per-connection completion fence deleted."""

    STAGE_KIND = "dma"
    REPLICATED = True

    def __init__(self, dp, replica_id=0):
        self.dp = dp
        self.replica_id = replica_id

    def program(self, thread):
        dp = self.dp
        while True:
            work = yield dp.dma_ring.get()
            yield from self._process(thread, work)

    def _process(self, thread, work):
        dp = self.dp
        record = work.record
        if not record.active:
            dp.retire(work)
            return
        post = record.post
        if work.kind == "rx":
            payload = work.rx_trimmed_payload
            if payload:
                if post.rx_region is not None:
                    post.rx_region.write(work.rx_offset, payload)
                yield dp.dma.issue(self.replica_id, len(payload))
            # BUG: no dma_rx_fence turn — a replica that finished a
            # later segment first delivers its notification first.
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
