"""Flow-processing cores with hardware multithreading.

An FPC is a single-issue 32-bit core at 800 MHz with 8 hardware thread
contexts. Exactly one thread occupies the issue pipeline at a time;
threads voluntarily swap out on memory/IO waits, which is how the NFP
hides its long memory latencies. The model enforces this with a
capacity-1 issue slot (:class:`~repro.sim.resources.Slots`) held for each
compute, and released during the wait of a memory read; a program waits
on IO (a DMA, a ring) holding no slot.

Every program an FPC runs is a :class:`Chain` of steps, not a generator:
each step runs to its one wait and names the step that follows it
(DESIGN §4). Each wait pushes the entry a generator process's ``yield``
of the same event pushed, so a run is the same run (``tests/flextoe/
test_stage_continuations.py`` keeps the generator stages as its oracle).
"""

from repro.sim.clock import CYCLES_800MHZ
from repro.sim import core
from repro.sim.core import NORMAL, Event, Step
from repro.sim.resources import Occupancy, Slots, StorePut

#: Cycles to issue a memory/IO command before swapping out.
ISSUE_CYCLES = 2

_new = object.__new__


def _dead(_chain, _value):
    """The step of a chain not started or killed: an entry of its own that
    comes due runs nothing, as its process would never have resumed."""
    return False


class Chain:
    """A program run as kernel continuations. A step is ``step(chain,
    value)``: it does its work and returns what its last call returns — a
    wait below, :meth:`goto` or another step. A wait returns True when it
    is over at once (DESIGN §12 rule 3: the chain was next in line), and
    the chain goes on in place with the wait's value; else False, and an
    entry whose one callback is the chain's resume goes on later.

    Where a process's ``yield`` pushed an entry, the wait pushes the same
    one: a start at ``URGENT``, a wake queued for now, a sleep, a hold's
    turn and end, or an event the chain waits on. A chain has one entry of
    its own pending at a time, so one :class:`~repro.sim.core.Step` serves
    them all, pushed through the kernel's ``core.heappush`` (the name
    ``make ties`` rebinds) or its same-instant queue. :meth:`kill` ends the
    chain the way an interrupt ended its process: an entry of its own that
    comes due later runs nothing."""

    __slots__ = ("sim", "name", "_resume_cb", "_wake_cbs", "_entry", "_then", "_target", "_value", "_waits",
                 "held")

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self._entry = _new(Step)
        self._then = _dead  # the step the next resume runs
        #: The event the chain waits on, if any: kill() takes the resume
        #: off it (any other wait's entry is the chain's own).
        self._target = None
        self._value = None  # what the next step is handed
        self._waits = None  # wait_all()'s events to go and its last step
        #: A grant the chain releases if it is killed (its ``finally``).
        self.held = None
        self.wrap(None)

    def wrap(self, guard):
        """Resume through ``guard(resume)`` (the sanitizer's owner token),
        or plainly for None; before the chain starts."""
        self._resume_cb = self._resume if guard is None else guard(self._resume)
        self._wake_cbs = [self._resume_cb]

    def start(self, first):
        """Run ``first(chain, None)`` at an ``URGENT`` entry pushed now."""
        self._then = first
        self._post(self._resume_cb)
        return self

    def _post(self, callback):
        """An event fired now, pushed ``URGENT`` with ``callback`` (a
        process's start, an interrupt, an already-fired wait)."""
        event = Event(self.sim)
        event._value = None
        event.callbacks.append(callback)
        self.sim._post(event)
        return event

    def _resume(self, _entry):
        while self._then(self, self._value):
            pass

    @property
    def is_alive(self):
        return self._then is not _dead

    def kill(self):
        """No step runs again: the resume leaves the event that holds it,
        and an ``URGENT`` entry is pushed where an interrupt's was, at which
        a held grant is released."""
        target = self._target
        if target is not None and target.callbacks and self._resume_cb in target.callbacks:
            target.callbacks.remove(self._resume_cb)
        self._then = _dead
        self._post(self._killed)

    def _killed(self, _event):
        held, self.held = self.held, None
        if held is not None:
            held.release()

    # -- waits -----------------------------------------------------------

    def goto(self, step):
        """Go on to ``step`` in place, with no wait (a loop's next turn
        through the trampoline, not a deeper call)."""
        self._then = step
        self._value = None
        return True

    def park(self, then):
        """Wait for :meth:`succeed`."""
        self._then = then
        return False

    def succeed(self, value=None):
        """Wake the chain parked on a store or by :meth:`park`, as a
        parked get is woken: its entry queued now; the chain goes on with
        ``value``."""
        self._value = value
        sim = self.sim
        entry = self._entry
        entry.callbacks = self._wake_cbs
        sim._seq += 1
        sim._queue.append((sim.now, NORMAL, sim._seq, entry))

    def wait(self, event, then):
        """Wait for ``event`` (what ``yield event`` did); ``then`` is
        handed what the chain was (:meth:`request` hands the grant)."""
        self._then = then
        callbacks = event.callbacks
        if callbacks is not None:
            callbacks.append(self._resume_cb)
            self._target = event
            return False
        sim = self.sim
        if event is sim._spot:  # taken on the spot where it was made
            sim._spot = None
            sim.now = sim._spot_at
            return True
        # Already fired and drained: resume at an entry posted now.
        self._target = self._post(self._resume_cb)
        return False

    def request(self, resource, then):
        """Wait for a grant of ``resource``; ``then`` is handed it. The
        chain is the running process while it asks (rule 3's grant on the
        spot is made to the running process)."""
        sim = self.sim
        caller, sim._active_process = sim._active_process, self
        grant = self._value = resource.request()
        sim._active_process = caller
        return self.wait(grant, then)

    def wait_all(self, events, then):
        """Wait for each of ``events`` in turn, then ``then``."""
        self._waits = (list(events), then)
        return Chain._wait_next(self, None)

    def _wait_next(self, _value):
        events, then = self._waits
        self._value = None
        if not events:
            return self.goto(then)
        event = events.pop(0)
        return self.wait(event, Chain._wait_next if events else then)

    def sleep(self, ns, then):
        """Wait ``ns`` (a ``sim.timeout(ns)``): in place when next in line."""
        self._then = then
        self._value = None
        sim = self.sim
        if ns <= 0:
            self.succeed()
            return False
        when = sim.now + ns
        heap = sim._heap
        if not (heap and heap[0][0] <= when) and sim._next_in_line(when, self._resume_cb):
            sim.now = when
            return True
        entry = self._entry
        entry.callbacks = self._wake_cbs
        sim._seq += 1
        core.heappush(heap, (when, NORMAL, sim._seq, entry))
        return False

    def get(self, ring, then):
        """Wait for the next item of ``ring`` (a ``get()``): taken in place
        when the chain is next in line, else the chain parks on the store."""
        self._then = then
        items = ring.items
        if items:
            sim = self.sim
            heap = sim._heap
            now = sim.now
            if not (heap and heap[0][0] <= now) and sim._next_in_line(now, self._resume_cb):
                self._value = items.popleft()
                if ring._put_queue:  # room for a blocked put
                    ring._settle()
                return True
        self._target = None  # parked, it holds no spent event
        ring._get_queue.append(self)
        if items:  # not next in line: the item comes at an entry queued now
            ring._settle()
        return False

    def put(self, ring, item, then):
        """Put ``item`` into ``ring`` (a ``put()``): a parked get is handed
        it, or the store takes it; either way the chain resumes at the
        entry its put's event was queued at. A full store blocks the put."""
        if ring.tap is not None:
            ring.tap(item)
        gets = ring._get_queue
        capacity = ring.capacity
        if gets:
            ring.max_occupancy = ring.max_occupancy or 1
            gets.popleft().succeed(item)
        elif capacity is not None and len(ring.items) >= capacity:
            self._value = None
            return self.wait(StorePut(ring, item), then)
        else:
            ring._accept(item)
        self._then = then
        self._value = None
        sim = self.sim
        entry = self._entry
        entry.callbacks = self._wake_cbs
        sim._seq += 1
        sim._queue.append((sim.now, NORMAL, sim._seq, entry))
        return False


class FpcThread(Chain):
    """One hardware thread context, running a :class:`Chain` program that
    calls :meth:`charge` and :meth:`read`. The other slots are the
    program's registers, for what a work carries between steps."""

    __slots__ = ("fpc", "thread_id", "_slots", "_ns_cache", "_turn_cbs", "_end_cb", "_end_cbs", "_ns", "_read",
                 "work", "after", "turn", "serial", "aux", "items", "n", "found", "batch")

    def __init__(self, fpc, thread_id, name=None):
        Chain.__init__(self, fpc.sim, name or "{}.t{}".format(fpc.name, thread_id))
        self.fpc = fpc
        self.thread_id = thread_id
        self._slots = fpc.issue_slot
        self._ns_cache = fpc.clock._ns_cache  # cycles -> ns, filled by cycles_to_ns
        self._turn_cbs = [self._turn]
        self._ns = 0  # the hold's length, for its turn
        self._read = None  # read()'s latency and last step
        self.work = self.after = self.turn = self.serial = self.aux = self.items = self.batch = None
        self.n = 0
        self.found = False

    def wrap(self, guard):
        """:meth:`Chain.wrap`, and the hold's end, which resumes the thread too."""
        Chain.wrap(self, guard)
        self._end_cb = self._end if guard is None else guard(self._end)
        self._end_cbs = [self._end_cb]

    def charge(self, cycles, then):
        """Execute ``cycles`` instructions holding the issue slot, then
        ``then``: a :class:`~repro.sim.resources.Hold` of the slot, its
        entries pushed where the hold pushes them. The slot is taken as
        ``Slots.take`` takes it, or the thread's turn waits for it; a free
        slot with nothing due before the hold ends is held and released in
        place."""
        self._then = then
        if cycles <= 0:
            self._value = None
            return True
        ns = self._ns_cache.get(cycles) or self.fpc.cycles_to_ns(cycles)
        self._value = cycles  # charged as the hold ends
        slots = self._slots
        if slots.in_use:  # the FPC's one issue slot is busy: wait for it
            self._ns = ns
            slots._waiting.append(self._turn)
            return False
        slots.in_use = 1
        sim = self.sim
        now = sim.now
        heap = sim._heap
        # Something due now is the common answer under load: not in place.
        if not (heap and heap[0][0] <= now or sim._queue):
            if not (heap and heap[0][0] <= now + ns) and sim._next_in_line(now + ns, self._resume_cb):
                slots.in_use = 0  # granted, held and released on the spot
                slots.busy_cycles += cycles
                sim.now = now + ns
                self._value = None
                return True
            if sim._next_in_line(now, self._resume_cb):
                entry = self._entry  # granted on the spot; the hold's end pushed
                entry.callbacks = self._end_cbs
                sim._seq += 1
                core.heappush(heap, (now + ns, NORMAL, sim._seq, entry))
                return False
        self._ns = ns  # the turn is queued where the grant was
        entry = self._entry
        entry.callbacks = self._turn_cbs
        sim._seq += 1
        sim._queue.append((now, NORMAL, sim._seq, entry))
        return False

    def _turn(self, _step):
        """The slot reached the thread: hold it, in place when the end
        would be the very next dispatch, else with the end pushed."""
        if self._then is _dead:
            return  # killed waiting for the slot: it keeps the slot
        sim = self.sim
        when = sim.now + self._ns
        heap = sim._heap
        if not (heap and heap[0][0] <= when) and sim._next_in_line(when):
            sim.now = when
            self._end_cb(None)
            return
        entry = self._entry
        entry.callbacks = self._end_cbs
        sim._seq += 1
        core.heappush(heap, (when, NORMAL, sim._seq, entry))

    def _end(self, _entry):
        """The hold ends: its cycles charged and the slot handed on (as
        ``Slots.hand_on``), then the thread goes on — the hold's end and
        its holder's resume, one dispatch."""
        if self._then is _dead:
            return  # killed holding the slot: it never hands it on
        slots = self._slots
        slots.busy_cycles += self._value
        self._value = None
        waiting = slots._waiting
        if waiting:
            self.sim._schedule_now(waiting.popleft())
        else:
            slots.in_use -= 1
        self.sim._dispatching = self._wake_cbs  # the holder's resume is the dispatch's last callback
        while self._then(self, self._value):
            pass

    def read(self, latency_cycles, issue_cycles, then):
        """Read from a memory ``latency_cycles`` away: charge
        ``issue_cycles``, then wait out the latency with the issue slot
        free (another thread may run), then ``then``."""
        self._read = (self.fpc.cycles_to_ns(latency_cycles), then)
        return self.charge(issue_cycles, FpcThread._read_wait)

    def _read_wait(self, _value):
        ns, then = self._read
        self._read = None
        return self.sleep(ns, then)


class Fpc:
    """A flow-processing core hosting up to ``n_threads`` programs."""

    def __init__(self, sim, name, clock=CYCLES_800MHZ, n_threads=8):
        self.sim = sim
        self.name = name
        self.clock = clock
        #: Bound memoized converter (see Clock.cycles_to_ns); saves an
        #: attribute hop on every compute/mem wait.
        self.cycles_to_ns = clock.cycles_to_ns
        self.n_threads = n_threads
        self.issue_slot = Slots(sim, capacity=1, name="{}.issue".format(name))
        self._threads = []
        self.stalls = 0
        self.stalled_ns = 0

    def _thread(self, name):
        if len(self._threads) >= self.n_threads:
            raise RuntimeError("{}: all {} hardware threads in use".format(self.name, self.n_threads))
        thread = FpcThread(self, len(self._threads), name)
        self._threads.append(thread)
        return thread

    def run(self, first, name=None, guard=None):
        """Start a :class:`Chain` program on a fresh hardware thread: its
        first step ``first(thread, None)`` runs at the start entry.
        ``guard(resume)``, if given, wraps the thread's resume (the
        sanitizer's owner token). Raises when all thread contexts are
        taken."""
        thread = self._thread(name)
        thread.wrap(guard)
        return thread.start(first)

    @property
    def busy_cycles(self):
        """Cycles spent issuing instructions (charged as each compute ends)."""
        return self.issue_slot.busy_cycles

    def stall(self, duration_ns):
        """Occupy the issue pipeline for ``duration_ns`` (fault injection).

        Models a thread wedged in the issue stage — e.g. an ECC scrub,
        a firmware assist, or a microcode loop — during which no hardware
        thread on this FPC can issue instructions. Memory waits already
        in flight still complete. The stall queues for the slot like a
        thread and is counted when it gets it.
        """
        Occupancy(self.issue_slot, duration_ns, self._stalled)

    def _stalled(self, duration_ns):
        self.stalls += 1
        self.stalled_ns += duration_ns

    def utilization(self, elapsed_ns):
        """Fraction of cycles spent issuing instructions."""
        if elapsed_ns <= 0:
            return 0.0
        total_cycles = self.clock.ns_to_cycles(elapsed_ns)
        return min(1.0, self.busy_cycles / total_cycles) if total_cycles else 0.0

    def __repr__(self):
        return "<Fpc {} threads={}/{}>".format(self.name, len(self._threads), self.n_threads)
