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

An idle SCH thread sleeps on one kernel timer at the wheel's next
deadline; an FS update that comes first withdraws it (DESIGN §12), so a
deadline that never fires costs no dispatch.
"""

from collections import deque

from repro.flextoe.config import SCHED_DEQUEUE
from repro.flextoe.proto_logic import MSS

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

    def __init__(self, sim, trigger_tx, mss=MSS, slot_ns=1000, n_slots=4096):
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
        #: What an FS update wakes, by its ``succeed()``: the idle SCH thread
        #: parked with no deadline (``_parked``), or sleeping until the
        #: kernel timer ``_timer`` (``_wake``, until a kick or its resume;
        #: the kick settles the race by ``sim._won``).
        self._parked = None
        self._wake = None
        self._timer = None
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
        self.rate_limited_enqueues += 1

    def _sleep(self, sleeper, deadline):
        """Idle: ``sleeper`` wakes (``sleeper.succeed()``) at the next FS
        update, or at ``deadline`` (after now) if that comes first."""
        if deadline is None:
            self._parked = sleeper
        else:
            self._wake = sleeper
            self._timer = self.sim._timer(deadline, sleeper.succeed)

    def _kick(self):
        parked = self._parked
        if parked is not None:
            self._parked = None
            parked.succeed()
            return
        sleeper = self._wake
        if sleeper is not None:
            # Two queued hops wake the sleeper (the kernel's, then what its
            # succeed() queues), the order the AnyOf oracle in
            # test_scheduler.py pins; a timer due by now has won.
            self._wake = None
            self.sim._won(self._timer, sleeper.succeed)

    def _pop_due(self):
        """Pop one flow whose deadline has passed (or an RR flow); else
        None and the wheel's next deadline (None when it is empty)."""
        if self._rr:
            return self._rr.popleft(), None
        wheel = self._wheel
        if not wheel:
            return None, None
        now = self.sim.now
        n_slots = self.n_slots
        slot = now // self.slot_ns
        # Real hardware pops the slot queue whose deadline passed; one pass
        # over the populated slots finds the due head nearest behind the
        # current slot (the one a backwards sweep over every slot reaches
        # first) and the earliest head.
        due = nearest = soonest = None
        for index, bucket in wheel.items():
            deadline = bucket[0][0]
            if deadline <= now:
                back = (slot - index) % n_slots
                if due is None or back < nearest:
                    due, nearest = index, back
            elif soonest is None or deadline < soonest:
                soonest = deadline
        if due is None:
            return None, soonest
        bucket = wheel[due]
        entry = bucket.popleft()[1]
        if not bucket:
            del wheel[due]
        return entry, None

    def program(self, thread, _value=None):
        """The SCH FPC program: pop a due flow, charge the dequeue, take
        the trigger; idle, sleep until an FS update or the next wheel
        deadline."""
        while True:
            entry, deadline = self._pop_due()
            if entry is None:
                self._sleep(thread, deadline)
                return thread.park(self._woken)
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
