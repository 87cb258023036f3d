"""The PCIe DMA engine (paper §2.3).

The PCIe island exposes a pair of DMA transaction queues; FPCs may keep
up to 128 asynchronous operations in flight on each. An operation costs
a fixed round-trip latency (PCIe + host memory) plus transfer time on the
shared PCIe bandwidth. Hiding this latency is why DMA is its own
pipeline stage in FlexTOE.
"""

from repro.sim import Resource

PCIE_GEN3_X8_BPS = 63_000_000_000  # ~7.9 GB/s usable


class DmaEngine:
    """Two transaction queues over shared PCIe bandwidth."""

    def __init__(
        self,
        sim,
        n_queues=2,
        queue_depth=128,
        latency_ns=700,
        bandwidth_bps=PCIE_GEN3_X8_BPS,
    ):
        self.sim = sim
        self.latency_ns = latency_ns
        self.bandwidth_bps = bandwidth_bps
        self._queues = [
            Resource(sim, capacity=queue_depth, name="dma-q{}".format(i)) for i in range(n_queues)
        ]
        self._busy_until = 0
        self._transfer_ns_cache = {}
        self.ops = 0
        self.bytes_moved = 0
        #: Optional fault hook (repro.faults): called with the transfer
        #: size, returns extra retry latency in ns (0 = healthy op).
        self.fault_hook = None
        self.transient_failures = 0
        self.retry_ns_total = 0

    def transfer_time_ns(self, nbytes):
        # Memoized: descriptors come in a handful of fixed sizes
        # (headers, notifications, MSS payload slices).
        cache = self._transfer_ns_cache
        ns = cache.get(nbytes)
        if ns is None:
            ns = 0 if nbytes <= 0 else -(-nbytes * 8 * 1_000_000_000 // self.bandwidth_bps)
            if len(cache) < 4096:
                cache[nbytes] = ns
        return ns

    def issue(self, queue_id, nbytes):
        """Start a DMA of ``nbytes``; returns an event firing on completion.

        The caller (an FPC thread) does not hold its issue slot while the
        DMA runs — that is the entire point of the asynchronous engine.
        """
        queue = self._queues[queue_id % len(self._queues)]
        done = self.sim.event()
        self.sim.process(self._run(queue, nbytes, done), name="dma-op")
        return done

    def _run(self, queue, nbytes, done):
        grant = yield queue.request()
        retry_ns = 0
        if self.fault_hook is not None:
            # Transient DMA failure: the engine retries the descriptor
            # after ``retry_ns``; the operation still completes (PCIe
            # replay), it just arrives late and holds its queue slot.
            retry_ns = int(self.fault_hook(nbytes) or 0)
            if retry_ns > 0:
                self.transient_failures += 1
                self.retry_ns_total += retry_ns
                yield self.sim.timeout(retry_ns)
        start = max(self.sim.now, self._busy_until)
        finish = start + self.transfer_time_ns(nbytes)
        self._busy_until = finish
        yield self.sim.timeout(finish - self.sim.now + self.latency_ns)
        self.ops += 1
        self.bytes_moved += max(0, nbytes)
        grant.release()
        done.succeed()
