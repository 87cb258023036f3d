"""The Carousel-based flow scheduler (paper §3.5, §4).

The scheduler keeps, per connection, the bytes available for transmission
(pushed by the post-processor's FS updates — the protocol stage is the
authority on the true window) and a transmission interval programmed by
the control-plane. Because FPCs cannot divide, the control plane programs
intervals in **ns-per-byte Q8 fixed point** rather than rates; the
scheduler only multiplies.

Uncongested flows (interval 0) bypass the time wheel and are served
round-robin — the work-conserving fast path. Rate-limited flows are
enqueued into time-wheel slots (EMEM hardware queues) by deadline. The
wheel holds only its populated slots: a slot's queue exists from its
first enqueue until it empties, so an idle wheel costs nothing.
"""

from collections import deque

from repro.flextoe.config import SCHED_DEQUEUE
from repro.sim import Timeout
from repro.sim.core import PENDING

INTERVAL_Q8_SHIFT = 8


def rate_to_interval_q8(bytes_per_sec):
    """Control-plane helper: rate -> ns/byte in Q8 (0 = unlimited)."""
    if bytes_per_sec <= 0:
        return 0
    interval = (1_000_000_000 << INTERVAL_Q8_SHIFT) // int(bytes_per_sec)
    return max(1, interval)


class _FlowEntry:
    __slots__ = ("conn_index", "deficit", "interval_q8", "queued", "next_deadline")

    def __init__(self, conn_index):
        self.conn_index = conn_index
        self.deficit = 0
        self.interval_q8 = 0
        self.queued = False
        self.next_deadline = 0


class CarouselScheduler:
    """Time wheel + round-robin bypass, emitting TX triggers."""

    STAGE_KIND = "sch"  # the owner token its TX triggers enter pre_in under

    def __init__(self, sim, trigger_tx, mss=1448, slot_ns=1000, n_slots=4096):
        self.sim = sim
        #: ``trigger_tx(conn_index)``: the event of the trigger being taken.
        self.trigger_tx = trigger_tx
        self.mss = mss
        self.slot_ns = slot_ns
        self.n_slots = n_slots
        self._flows = {}
        self._rr = deque()
        #: Populated slots only: slot index -> FIFO of (deadline, entry).
        self._wheel = {}
        self._wheel_population = 0
        #: What an FS update wakes: the idle SCH thread itself (parked), or
        #: the event it waits on with the wheel's next deadline.
        self._parked = None
        self._wake = None
        self.triggers_issued = 0
        self.rate_limited_enqueues = 0

    # -- control interfaces ------------------------------------------------

    def _entry(self, conn_index):
        entry = self._flows.get(conn_index)
        if entry is None:
            entry = _FlowEntry(conn_index)
            self._flows[conn_index] = entry
        return entry

    def set_interval(self, conn_index, interval_q8):
        """Control-plane MMIO write of the per-flow pacing interval."""
        self._entry(conn_index).interval_q8 = max(0, int(interval_q8))

    def set_rate(self, conn_index, bytes_per_sec):
        self.set_interval(conn_index, rate_to_interval_q8(bytes_per_sec))

    def remove_flow(self, conn_index):
        entry = self._flows.pop(conn_index, None)
        if entry is not None:
            entry.deficit = 0

    def fs_update(self, conn_index, sendable_bytes):
        """Post-processor FS op: absolute sendable-byte refresh."""
        entry = self._entry(conn_index)
        entry.deficit = max(0, int(sendable_bytes))
        if entry.deficit > 0 and not entry.queued:
            self._enqueue(entry)
        self._kick()

    # -- internals -----------------------------------------------------------

    def _enqueue(self, entry):
        entry.queued = True
        if entry.interval_q8 == 0:
            self._rr.append(entry)
            return
        deadline = max(entry.next_deadline, self.sim.now)
        slot = (deadline // self.slot_ns) % self.n_slots
        bucket = self._wheel.get(slot)
        if bucket is None:
            bucket = self._wheel[slot] = deque()
        bucket.append((deadline, entry))
        self._wheel_population += 1
        self.rate_limited_enqueues += 1

    def _kick(self):
        parked = self._parked
        if parked is not None:
            self._parked = None
            parked.succeed()
            return
        wake = self._wake
        if wake is not None and wake._value is PENDING:
            wake.succeed()

    def _pop_due(self):
        """Pop one flow whose deadline has passed (or an RR flow)."""
        if self._rr:
            return self._rr.popleft()
        if self._wheel_population == 0:
            return None
        now = self.sim.now
        slot = (now // self.slot_ns) % self.n_slots
        n_slots = self.n_slots
        # Scan from the current slot backwards over the horizon for due
        # entries. Real hardware pops the slot queue whose deadline
        # passed; a scan is equivalent and keeps the model simple. The
        # wheel holds populated slots only, visited in the same backwards
        # order a sweep over every slot would reach them.
        wheel = self._wheel
        for index in sorted(wheel, key=lambda s: (slot - s) % n_slots):
            bucket = wheel[index]
            deadline, entry = bucket[0]
            if deadline <= now:
                bucket.popleft()
                self._wheel_population -= 1
                if not bucket:
                    del wheel[index]
                return entry
        return None

    def _next_wheel_deadline(self):
        if self._wheel_population == 0:
            return None
        return min(bucket[0][0] for bucket in self._wheel.values())

    def program(self, thread, _value=None):
        """The SCH FPC program: pop a due flow, charge the dequeue, take
        the trigger; idle, sleep until an FS update or the next wheel
        deadline."""
        sim = self.sim
        while True:
            entry = self._pop_due()
            if entry is None:
                deadline = self._next_wheel_deadline()
                if deadline is None:
                    self._parked = thread
                    return thread.park(self._woken)
                self._wake = sim.event()
                return thread.wait(sim.any_of([self._wake, Timeout(sim, int(max(0, deadline - sim.now)))]), self._woken)
            entry.queued = False
            if entry.deficit > 0:
                thread.work = entry
                return thread.charge(SCHED_DEQUEUE, self._dequeued)

    def _woken(self, thread, _):
        self._wake = None
        return self.program(thread)

    def _dequeued(self, thread, _):
        entry = thread.work
        burst = thread.n = min(self.mss, entry.deficit)
        entry.deficit -= burst
        self.triggers_issued += 1
        return thread.wait(self.trigger_tx(entry.conn_index), self._triggered)

    def _triggered(self, thread, _):
        entry = thread.work
        if entry.deficit > 0:
            if entry.interval_q8 > 0:
                entry.next_deadline = max(entry.next_deadline, self.sim.now) + (
                    (thread.n * entry.interval_q8) >> INTERVAL_Q8_SHIFT
                )
            self._enqueue(entry)
        return self.program(thread)
