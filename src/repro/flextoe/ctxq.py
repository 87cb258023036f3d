"""Context queues between libTOE and the data-path (paper §3, §4).

Each application thread owns a :class:`ContextQueuePair` in host shared
memory: an outbound queue (host-control descriptors toward the NIC,
flushed with a doorbell) and an inbound queue (notifications from the
NIC). The NIC moves entries with DMA; the host side polls, or blocks on
an eventfd backed by an MSI-X interrupt when it has been idle (paper §4's
context-queue manager)."""

from collections import deque

DESCRIPTOR_BYTES = 32


class ContextQueuePair:
    """One application context's queue pair plus wakeup machinery."""

    def __init__(self, sim, context_id, capacity=1024):
        self.sim = sim
        self.context_id = context_id
        self.capacity = capacity
        self.outbound = deque()  # HostControlDescriptor, host -> NIC
        self.inbound = deque()  # Notification, NIC -> host
        self._waiters = []
        self._taps = []
        self.notifications_delivered = 0
        self.hc_posted = 0
        self.interrupts = 0

    def add_tap(self, fn):
        """Observe queue traffic: ``fn("hc", descriptor)`` on every
        accepted host-control post, ``fn("notify", notification)`` on
        every delivery. The control plane's recovery shadow taps every
        pair to mirror window updates without being on the data path."""
        self._taps.append(fn)

    # -- host side -------------------------------------------------------

    def post_hc(self, descriptor):
        """libTOE appends a descriptor; caller rings the doorbell after
        batching (possibly several descriptors per doorbell)."""
        if len(self.outbound) >= self.capacity:
            return False
        self.outbound.append(descriptor)
        self.hc_posted += 1
        for tap in self._taps:
            tap("hc", descriptor)
        return True

    def poll(self):
        """Host-side non-blocking reap of one notification."""
        if self.inbound:
            return self.inbound.popleft()
        return None

    def wait(self):
        """Event that fires when a notification is available.

        Models the blocking eventfd read; the data-path's context-queue
        manager raises MSI-X when a sleeping context gets traffic."""
        event = self.sim.event()
        if self.inbound:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    # -- NIC side ----------------------------------------------------------

    def nic_fetch_batch(self, max_batch=16):
        """NIC pops up to ``max_batch`` outbound descriptors (post-DMA)."""
        batch = []
        while self.outbound and len(batch) < max_batch:
            batch.append(self.outbound.popleft())
        return batch

    def nic_deliver(self, notification):
        """NIC appends a notification (post-DMA) and wakes a sleeper."""
        self.inbound.append(notification)
        self.notifications_delivered += 1
        for tap in self._taps:
            tap("notify", notification)
        if self._waiters:
            # Wake every sleeper (one MSI-X/eventfd ping); each re-checks
            # its own socket's state after dispatch.
            waiters = self._waiters
            self._waiters = []
            self.interrupts += 1
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()

    @property
    def has_outbound(self):
        return bool(self.outbound)
