"""Inter-FPC communication structures (paper §4, §4.1).

* :class:`ClsRing` — island-local producer/consumer ring in CLS; the
  fastest intra-island mechanism.
* :class:`WorkQueue` — IMEM/EMEM-backed work queue for cross-island
  communication; the queue memory engine supports work stealing, so a
  WorkQueue may feed several consumer FPCs.

Rings carry work and nothing else: the pipeline's ordering devices
(``Sequencer``, ``ReorderBuffer``, ``KeyedFence``) live in
:mod:`repro.flextoe.seqr`.
"""

from repro.sim import Store


class _Ring:
    """A bounded producer/consumer queue over a :class:`Store`; the
    subclasses differ only in which memory the hardware keeps them in."""

    __slots__ = ("store", "name", "tap")

    def __init__(self, sim, capacity, name):
        self.store = Store(sim, capacity=capacity, name=name)
        self.name = name
        # Optional enqueue observer (``tap(item)``), fired synchronously
        # before the item enters the store. Used by the happens-before
        # runtime monitor (repro.analysis.hbmonitor); None in production,
        # so the cost is one attribute check per put.
        self.tap = None

    def put(self, item):
        if self.tap is not None:
            self.tap(item)
        return self.store.put(item)

    def get(self):
        return self.store.get()

    def try_get(self):
        """``(True, item)`` without waiting, or ``(False, None)`` if empty."""
        return self.store.try_get()

    def deliver(self, item):
        """``Store.deliver``: an engine step's put into a ring with room;
        the tap sees the item first."""
        if self.tap is not None:
            self.tap(item)
        self.store.deliver(item)

    def force_put(self, item):
        """Unconditional enqueue past the capacity bound (overflow path)."""
        if self.tap is not None:
            self.tap(item)
        self.store.force_put(item)

    def __len__(self):
        return len(self.store)

    @property
    def max_occupancy(self):
        return self.store.max_occupancy


class ClsRing(_Ring):
    """A bounded ring in island-local CLS memory."""

    __slots__ = ()

    def __init__(self, sim, capacity=64, name="cls-ring"):
        _Ring.__init__(self, sim, capacity, name)


class WorkQueue(_Ring):
    """An IMEM- or EMEM-backed work queue (cross-island, work-stealing)."""

    __slots__ = ()

    def __init__(self, sim, capacity=None, name="work-queue"):
        _Ring.__init__(self, sim, capacity, name)
