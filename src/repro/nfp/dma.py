"""The PCIe DMA engine (paper §2.3).

The PCIe island exposes a pair of DMA transaction queues; FPCs may keep
up to 128 asynchronous operations in flight on each. An operation costs
a fixed round-trip latency (PCIe + host memory) plus transfer time on the
shared PCIe bandwidth. Hiding this latency is why DMA is its own
pipeline stage in FlexTOE.

An operation is a continuation, not a process: it starts in the dispatch
that issues it, and its steps (:class:`~repro.sim.core.Step`) grant a
queued operation its slot, retry and complete it; the completing step
fires the operation's ``done``.
"""

from repro.sim.resources import Slots

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
        self._queues = [Slots(sim, capacity=queue_depth, name="dma-q{}".format(i)) for i in range(n_queues)]
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
        _DmaOp(self, queue, nbytes, done)
        return done


class _DmaOp:
    """One operation: its queue slot, an optional fault-hook retry, the
    transfer plus latency, then the slot handed on and ``done`` fired.

    A free slot is taken where the operation is issued, and its first
    timed step pushed from there: the issuing thread is mid-resume, so
    nothing runs in place. A busy queue takes the operation's turn, whose
    steps run under rule 3's test (``Simulator._after``)."""

    __slots__ = ("engine", "queue", "nbytes", "done")

    def __init__(self, engine, queue, nbytes, done):
        self.engine = engine
        self.queue = queue
        self.nbytes = nbytes
        self.done = done
        if queue.take(self._granted):
            sim = engine.sim
            delay, step = self._taken()
            sim._schedule(sim.now + delay, step)

    def _granted(self, _step):
        self.engine.sim._after(*self._taken())

    def _taken(self):
        """The slot is held: the delay and step that follow, a retry if the
        fault hook draws one, else the transfer and its completion."""
        engine = self.engine
        if engine.fault_hook is not None:
            # Transient DMA failure: the engine retries the descriptor
            # after ``retry_ns``; the operation still completes (PCIe
            # replay), it just arrives late and holds its queue slot.
            retry_ns = int(engine.fault_hook(self.nbytes) or 0)
            if retry_ns > 0:
                engine.transient_failures += 1
                engine.retry_ns_total += retry_ns
                return retry_ns, self._transfer
        return self._transferred(), self._complete

    def _transfer(self, _step):
        self.engine.sim._after(self._transferred(), self._complete)

    def _transferred(self):
        """Start the transfer on the shared bandwidth; the ns to completion."""
        engine = self.engine
        now = engine.sim.now
        finish = max(now, engine._busy_until) + engine.transfer_time_ns(self.nbytes)
        engine._busy_until = finish
        return finish - now + engine.latency_ns

    def _complete(self, _step):
        engine = self.engine
        engine.ops += 1
        engine.bytes_moved += max(0, self.nbytes)
        self.queue.hand_on()
        self.done.succeed()
