"""Inter-FPC communication structures (paper §4, §4.1).

* :class:`ClsRing` — island-local producer/consumer ring in CLS; the
  fastest intra-island mechanism.
* :class:`WorkQueue` — IMEM/EMEM-backed work queue for cross-island
  communication; the queue memory engine supports work stealing, so a
  WorkQueue may feed several consumer FPCs.
* :class:`TicketLock` — FPC synchronization primitive used by the
  sequencer to order segments.

Each structure records the access latency its backing memory imposes;
stage programs charge that latency through their FPC thread.
"""

from repro.sim import Store
from repro.nfp.memory import LAT_CLS, LAT_EMEM, LAT_IMEM


class _Ring:
    """A bounded producer/consumer queue over a :class:`Store`; the
    subclasses differ only in the backing memory's access latency."""

    __slots__ = ("store", "access_latency", "name", "tap")

    def __init__(self, sim, capacity, name, access_latency):
        self.store = Store(sim, capacity=capacity, name=name)
        self.access_latency = access_latency
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

    def try_put(self, item):
        accepted = self.store.try_put(item)
        if accepted and self.tap is not None:
            self.tap(item)
        return accepted

    def force_put(self, item):
        """Unconditional enqueue past the capacity bound (overflow path)."""
        if self.tap is not None:
            self.tap(item)
        return self.store.force_put(item)

    def __len__(self):
        return len(self.store)

    @property
    def max_occupancy(self):
        return self.store.max_occupancy


class ClsRing(_Ring):
    """A bounded ring in island-local CLS memory."""

    __slots__ = ()

    def __init__(self, sim, capacity=64, name="cls-ring"):
        _Ring.__init__(self, sim, capacity, name, LAT_CLS)


class WorkQueue(_Ring):
    """An IMEM- or EMEM-backed work queue (cross-island, work-stealing)."""

    __slots__ = ("backing",)

    def __init__(self, sim, capacity=None, name="work-queue", backing="imem"):
        _Ring.__init__(self, sim, capacity, name, LAT_IMEM if backing == "imem" else LAT_EMEM)
        self.backing = backing


class TicketLock:
    """A fair spin lock: acquire order equals ticket order."""

    __slots__ = ("sim", "name", "_next_ticket", "_now_serving", "_waiters")

    def __init__(self, sim, name="ticket-lock"):
        self.sim = sim
        self.name = name
        self._next_ticket = 0
        self._now_serving = 0
        self._waiters = {}

    def acquire(self):
        """Returns an event that fires when the caller holds the lock."""
        ticket = self._next_ticket
        self._next_ticket += 1
        event = self.sim.event()
        if ticket == self._now_serving:
            event.succeed(ticket)
        else:
            self._waiters[ticket] = event
        return event

    def release(self):
        self._now_serving += 1
        waiter = self._waiters.pop(self._now_serving, None)
        if waiter is not None:
            waiter.succeed(self._now_serving)

    @property
    def queued(self):
        return len(self._waiters)
