"""The PCIe island: the MMIO doorbell and the DMA engine.

The host rings the data path's one doorbell via MMIO (posted writes, a
few hundred ns) whenever it appends to a context queue; the ATX FPC
waits on it and scans every context. Context-queue payload moves
through :class:`~repro.nfp.dma.DmaEngine`. A posted write landing is an
engine step (:class:`~repro.sim.core.Step`); a doorbell's landing fires
the oldest waiter's event, or is kept for the next wait.
"""

from repro.nfp.dma import DmaEngine

MMIO_WRITE_NS = 300


class PcieBlock:
    """The doorbell register + the chip's DMA engine."""

    def __init__(self, sim, dma=None):
        self.sim = sim
        self.dma = dma or DmaEngine(sim)
        #: Rings landed and not yet waited for; waiters for the next ring.
        self._pending = 0
        self._waiters = []
        #: Optional fault hook (repro.faults): called with the doorbell's
        #: name, ``"hc"`` (host control), which fault logs show; returns
        #: ``None`` to drop the posted write entirely, or an extra delay
        #: in ns appended to the MMIO latency (0 = healthy).
        self.mmio_fault = None
        self.doorbells_lost = 0
        self.mmio_delayed = 0

    def ring(self):
        """Host-side MMIO write landing after the posted-write delay."""
        delay_ns = MMIO_WRITE_NS
        if self.mmio_fault is not None:
            extra = self.mmio_fault("hc")
            if extra is None:
                # Posted write lost in flight: the host gets no error —
                # recovery relies on the control-plane RTO re-posting.
                self.doorbells_lost += 1
                return
            if extra > 0:
                self.mmio_delayed += 1
                delay_ns += int(extra)
        sim = self.sim
        sim._schedule(sim.now + delay_ns, self._landed)

    def _landed(self, _step):
        if self._waiters:
            # The oldest waiter consumes this ring directly.
            self._waiters.pop(0).succeed()
        else:
            self._pending += 1

    def wait_doorbell(self):
        """NIC-side: event that fires when a ring is available; each fired
        event consumes exactly one ring."""
        event = self.sim.event()
        if self._pending > 0:
            self._pending -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event
