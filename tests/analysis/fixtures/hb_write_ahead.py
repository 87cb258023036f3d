"""Regression fixture: write-ahead rule violation (§3.1.3).

A DMA stage that keeps the completion fence but offers the segment's
ACK directly to the NBI sequencer instead of piggybacking it on the
last notification. The ACK can then reach the wire before the
notification is host-visible: a crash in between leaves the peer
believing bytes were delivered that host-side recovery never saw. The
hb lint must report exactly one ``ack-before-notify`` at the offer.

Not imported at runtime: parsed by repro.analysis.hblint in tests.
"""


class EagerAckDmaStage:
    """DmaStage releasing the ACK without waiting for nic_deliver."""

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
            turn = dp.dma_rx_fence.enter(record)
            if payload:
                if post.rx_region is not None:
                    post.rx_region.write(work.rx_offset, payload)
                yield dp.dma.issue(self.replica_id, len(payload))
            if turn.blocked():
                yield turn.prev
            # BUG: the ACK must ride notifications[-1].piggyback_ack so
            # ARX releases it after nic_deliver; offering it here lets
            # it reach the wire first.
            ack_frame = work.ack_frame
            for notification in work.notify or ():
                yield dp.ctx_ring.put(notification)
            if ack_frame is not None:
                ack_frame.pipeline_seq = work.pipeline_seq
                dp.nbi_gro.offer(ack_frame)
            turn.leave()
