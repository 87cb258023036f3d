"""The PCIe island: MMIO doorbells and the DMA engine.

The host rings doorbells via MMIO (posted writes, a few hundred ns).
Context-queue payload moves through :class:`~repro.nfp.dma.DmaEngine`. A posted write landing
is an engine step (:class:`~repro.sim.core.Step`); a doorbell's landing
fires the oldest waiter's event.
"""

from repro.nfp.dma import DmaEngine

MMIO_WRITE_NS = 300


class Doorbell:
    """A NIC-side doorbell register the host writes via MMIO."""

    __slots__ = ("pending", "waiters", "rings")

    def __init__(self):
        self.pending = 0
        self.waiters = []
        self.rings = 0


class PcieBlock:
    """Doorbell registers + the chip's DMA engine."""

    def __init__(self, sim, dma=None):
        self.sim = sim
        self.dma = dma or DmaEngine(sim)
        self._doorbells = {}
        #: Optional fault hook (repro.faults): called with the doorbell
        #: key; returns ``None`` to drop the posted write entirely, or an
        #: extra delay in ns appended to the MMIO latency (0 = healthy).
        self.mmio_fault = None
        self.doorbells_lost = 0
        self.mmio_delayed = 0

    def doorbell(self, key):
        """Get-or-create the doorbell register for ``key``."""
        if key not in self._doorbells:
            self._doorbells[key] = Doorbell()
        return self._doorbells[key]

    def ring(self, key):
        """Host-side MMIO write landing after the posted-write delay."""
        delay_ns = MMIO_WRITE_NS
        if self.mmio_fault is not None:
            extra = self.mmio_fault(key)
            if extra is None:
                # Posted write lost in flight: the host gets no error —
                # recovery relies on the control-plane RTO re-posting.
                self.doorbells_lost += 1
                return
            if extra > 0:
                self.mmio_delayed += 1
                delay_ns += int(extra)
        bell = self.doorbell(key)
        sim = self.sim

        def fire(_step):
            bell.rings += 1
            if bell.waiters:
                # The oldest waiter consumes this ring directly.
                bell.waiters.pop(0).succeed()
            else:
                bell.pending += 1

        sim._schedule(sim.now + delay_ns, fire)

    def wait_doorbell(self, key):
        """NIC-side: event that fires when a ring is available; each fired
        event consumes exactly one ring."""
        bell = self.doorbell(key)
        event = self.sim.event()
        if bell.pending > 0:
            bell.pending -= 1
            event.succeed()
        else:
            bell.waiters.append(event)
        return event
