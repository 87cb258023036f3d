"""Inter-FPC communication structures (paper §4, §4.1).

A :class:`Ring` is a bounded producer/consumer queue between stages. An
island-local ring in CLS (the fastest intra-island mechanism) and a
cross-island IMEM/EMEM work queue, which the queue memory engine lets
several consumer FPCs steal from, differ only in which memory the
hardware keeps them in, so the model has one class for both.

Rings carry work and nothing else: the pipeline's ordering devices
(``Sequencer``, ``ReorderBuffer``, ``KeyedFence``) live in
:mod:`repro.flextoe.seqr`.
"""

from repro.sim.resources import Store, StorePut


class Ring(Store):
    """A :class:`Store` whose every enqueue is shown to ``tap(item)``
    first, if set: the happens-before runtime monitor
    (repro.analysis.hbmonitor) sets it; None in production, so the cost
    is one attribute check per put."""

    def __init__(self, sim, capacity=None, name=None):
        Store.__init__(self, sim, capacity, name)
        self.tap = None

    def put(self, item):
        if self.tap is not None:
            self.tap(item)
        return StorePut(self, item)

    def deliver(self, item):
        if self.tap is not None:
            self.tap(item)
        Store.deliver(self, item)

    def force_put(self, item):
        if self.tap is not None:
            self.tap(item)
        self._accept(item)
