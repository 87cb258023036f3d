"""Event loop, events, and processes for discrete-event simulation.

The design follows simpy's coroutine model: a :class:`Process` wraps a
generator that yields :class:`Event` objects; the process resumes when the
yielded event fires. Time is an integer (nanoseconds by convention).

Hot-path notes (DESIGN §12 keeps the ledger, one row per host-only
mechanism with the number behind it): :meth:`Simulator.run` is the one
dispatch loop; a process returning unwatched schedules no exit event
(:meth:`Event.settle`); an entry for ``now`` joins the same-instant
queue, not the heap; and an event the running process yields at once or
an engine operation's next step runs in place when it would be the very
next dispatch (rule 3, :meth:`Simulator._next_in_line`), for which the
loop records the callbacks it runs, its deadline and its target.

Event objects are never reused: one is created per occurrence, and what
a caller still holds after the dispatch is what was dispatched.

Everything observable — event ordering, timestamps, values, error
propagation — is pinned by ``tests/sim`` (including hypothesis
properties) and the golden-digest suite in ``tests/integration``.
"""

from collections import deque
from heapq import heapify, heappop, heappush

#: Event priorities. Lower sorts earlier at equal timestamps.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for illegal uses of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


PENDING = object()


def heapwithdraw(heap, item):
    """Take ``item`` out of ``heap`` (the name ``make ties`` and ``make opcodes`` rebind)."""
    heap.remove(item)
    heapify(heap)


def _lost(_step):
    """The queued hop of a wait whose timer won the race: it wakes nothing."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called;
    its callbacks then run at the current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False

    @property
    def triggered(self):
        return self._value is not PENDING

    @property
    def value(self):
        if self._value is PENDING:
            raise SimulationError("event has not been triggered")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with an optional payload."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        if not self._scheduled:
            self._scheduled = True
            sim = self.sim
            sim._seq += 1
            sim._queue.append((sim.now, NORMAL, sim._seq, self))
        return self

    def fail(self, exception):
        """Trigger the event with an exception to throw into waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.succeed(exception)._ok = False  # pushed, not yet dispatched
        return self

    def settle(self, value=None):
        """:meth:`succeed`, scheduling nothing when nobody is waiting.

        Dispatching an empty callback list runs nothing, so the event is
        marked dispatched on the spot and a later waiter takes the
        already-fired path (at once, not in the dispatch's position —
        which is why :meth:`succeed` itself must not do this).
        """
        if self.callbacks:
            return self.succeed(value)
        self._value = value
        self.callbacks = None
        return self

    def __repr__(self):
        state = "triggered" if self.triggered else "pending"
        return "<{} {}>".format(type(self).__name__, state)


#: What a run without a deadline or a target is bounded by.
_FOREVER = float("inf")
_NEVER = Event(None)
#: An instance without ``__init__``: :meth:`Simulator.timeout` fills it in.
_new = object.__new__


class Timeout(Event):
    """An event that fires after a fixed delay. Constructed directly it is
    always scheduled: that is how code that does not yield a timeout at
    once (a callback, a condition's member) makes one.
    :meth:`Simulator.timeout` may sleep it on the spot."""

    __slots__ = ()

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise SimulationError("negative timeout delay: {!r}".format(delay))
        # Event.__init__ inlined: born triggered and scheduled, never pending.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        sim._seq += 1
        if delay:
            heappush(sim._heap, (sim.now + delay, NORMAL, sim._seq, self))
        else:
            sim._queue.append((sim.now, NORMAL, sim._seq, self))


class Initialize(Event):
    """Internal event used to start a process."""

    __slots__ = ()

    def __init__(self, sim, process):
        self.sim = sim
        self._value = None
        self._ok = True
        self._scheduled = True
        self.callbacks = [process._resume_cb]
        sim._seq += 1
        heappush(sim._heap, (sim.now, URGENT, sim._seq, self))


class Step:
    """An entry whose one callback is a step of a hardware engine's
    operation (FPC issue slots, host cores, the DMA engine, the wire, a
    doorbell), a continuation, not a process (DESIGN §12 rule 3;
    :meth:`Simulator._schedule`, :meth:`Simulator._after`)."""

    __slots__ = ("callbacks",)


class _Queue(deque):
    """The entries made for ``now`` at NORMAL priority, keys rising (DESIGN
    §12 rule 3); the sanitizer, ``make ties`` and ``opcodes`` rebind its methods."""

    __slots__ = ("sim",)


class Process(Event):
    """A running generator; also an event that fires when it terminates."""

    __slots__ = ("_generator", "_target", "_resume_cb", "name")

    def __init__(self, sim, generator, name=None):
        if not hasattr(generator, "throw"):
            raise SimulationError("process requires a generator, got {!r}".format(generator))
        super().__init__(sim)
        self._generator = generator
        self._target = None
        self._resume_cb = self._resume  # one bound method for every wait
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(sim, self)

    @property
    def is_alive(self):
        return self._value is PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a terminated process")
        target = self._target
        if target is not None and target.callbacks and self._resume_cb in target.callbacks:
            target.callbacks.remove(self._resume_cb)
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume_cb)
        self.sim._post(event)

    def _resume(self, event):
        sim = self.sim
        sim._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        result = self._generator.send(event._value)
                    else:
                        result = self._generator.throw(event._value)
                except StopIteration as stop:
                    self.settle(stop.value)
                    return
                except BaseException as exc:
                    if not self.callbacks:
                        raise
                    self._value = PENDING  # an earlier succeed() is overridden
                    self.fail(exc)
                    return
                if not isinstance(result, Event):
                    raise SimulationError(
                        "process {!r} yielded {!r}; processes must yield events".format(self.name, result)
                    )
                callbacks = result.callbacks
                if callbacks is not None:
                    callbacks.append(self._resume_cb)
                    self._target = result
                    return
                if result is not sim._spot:
                    break
                # Taken on the spot: its dispatch would have been the very
                # next one and would have resumed this process alone.
                sim._spot = None
                sim.now = sim._spot_at
                event = result
        finally:
            sim._active_process = None
        # Already-fired, already-drained event: resume immediately.
        event2 = Event(sim)
        event2._ok = result._ok
        event2._value = result._value
        event2.callbacks.append(self._resume_cb)
        sim._post(event2)
        self._target = event2


class Condition(Event):
    """Fires when a boolean combination of sub-events is satisfied."""

    __slots__ = ("_events", "_count", "_all")

    def __init__(self, sim, events, wait_for_all):
        super().__init__(sim)
        self._events = list(events)
        self._all = wait_for_all
        need = len(self._events) if wait_for_all else min(1, len(self._events))
        self._count = need
        if need == 0:
            self.succeed({})
            return
        check = self._check  # one bound method shared by all sub-events
        for event in self._events:
            if event.callbacks is None:
                if event is sim._spot:
                    raise SimulationError(
                        "{!r} was taken on the spot: a request(), get() or timeout() is "
                        "yielded at once, not combined (a condition takes Timeout(sim, "
                        "delay))".format(event)
                    )
                # Already fired and drained.
                check(event)
            else:
                event.callbacks.append(check)

    def _check(self, event):
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count -= 1
        if self._count <= 0:
            if self._all:
                self.succeed({e: e._value for e in self._events})
            else:
                self.succeed({event: event._value})


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(100)

        sim.process(worker(sim))
        sim.run()
    """

    def __init__(self):
        self.now = 0
        self._heap = []
        self._queue = _Queue()
        self._queue.sim = self
        self._seq = 0
        self._active_process = None
        self._event_count = 0
        #: Callback list of the event being dispatched.
        self._dispatching = ()
        #: An event taken on the spot that its process has not yielded
        #: yet (at most one: it is yielded at once), and when it fires.
        self._spot = None
        self._spot_at = 0
        #: What ends the running :meth:`run`: its deadline, its target.
        self._deadline = _FOREVER
        self._until = _NEVER

    # -- scheduling ------------------------------------------------------

    def _post(self, event):
        """Push ``event``, fired, URGENT at ``now``."""
        event._scheduled = True
        self._seq += 1
        heappush(self._heap, (self.now, URGENT, self._seq, event))

    def _next_in_line(self, when, callback=None):
        """Rule 3's test (DESIGN §12): whether what ``callback`` would push
        for ``when`` is the very next dispatch, so that it may run in place
        instead: ``callback`` is the last callback of this dispatch (an
        engine step passes None: it must be running in its own dispatch,
        not in a process's resume), nothing is queued nor due by ``when``,
        and this run would go on to ``when`` (deadline; target unfired)."""
        heap = self._heap
        if heap and heap[0][0] <= when or self._queue:  # the common answer first
            return False
        return (
            (callback is None or self._dispatching[-1] is callback)
            and when <= self._deadline
            and self._until._value is PENDING
        )

    def _grant_on_the_spot(self, event, value, when):
        """Fire ``event`` with ``value`` at ``when`` without pushing it, if
        the running process is next in line for ``when`` (with its resume);
        returns whether it did (DESIGN §12 rule 3). ``event`` is a
        ``request()`` or ``get()`` satisfied now, or a ``sim.timeout()`` or
        engine :class:`~repro.sim.resources.Hold` ending at ``when``: it is
        marked dispatched (``callbacks = None``) and recorded in ``_spot``,
        and :meth:`Process._resume` continues in place at ``when`` when the
        process yields it."""
        process = self._active_process
        if process is None or not self._next_in_line(when, process._resume_cb):
            return False
        event._value = value
        event.callbacks = None
        self._spot = event
        self._spot_at = when
        return True

    def _schedule(self, when, step):
        """Push a :class:`Step` running ``step`` at ``when``, or queue it."""
        if when == self.now:
            return self._schedule_now(step)
        entry = _new(Step)
        entry.callbacks = [step]
        self._seq += 1
        heappush(self._heap, (when, NORMAL, self._seq, entry))

    def _schedule_now(self, step):
        """Queue a :class:`Step` running ``step`` now."""
        entry = _new(Step)
        entry.callbacks = [step]
        self._seq += 1
        self._queue.append((self.now, NORMAL, self._seq, entry))

    def _after(self, delay, step):
        """Run the engine step ``step`` ``delay`` ns from now: in place when
        next in line, else scheduled. Only a step in its own dispatch calls
        this; where an operation is issued, its first step is scheduled."""
        when = self.now + delay
        if delay > 0 and self._next_in_line(when):
            self.now = when
            step(None)
        else:
            self._schedule(when, step)

    def _timer(self, when, step):
        """Push a :class:`Step` running ``step`` at ``when`` (after now);
        its heap item, which :meth:`_withdraw` takes back while pending.
        :meth:`_schedule` returns nothing: every engine step passes it,
        and keeping its item costs two bytecodes a call."""
        entry = _new(Step)
        entry.callbacks = [step]
        self._seq += 1
        item = (when, NORMAL, self._seq, entry)
        heappush(self._heap, item)
        return item

    def _withdraw(self, item):
        """Take a :meth:`_timer`'s ``item`` off the heap: it never runs."""
        try:
            heapwithdraw(self._heap, item)
        except ValueError:
            raise SimulationError("the timer due at {} (seq {}) is not pending".format(item[0], item[2])) from None

    def _won(self, timer, step):
        """A wait that raced ``timer`` (a :meth:`_timer` item) ends now:
        withdraw the timer and queue ``step``, unless the timer is due by now
        and so has won (it sorts first); then the queued hop runs nothing.
        Either way the hop takes one seq and one queue place, as the
        ``succeed()`` of an event raced in an any-of condition did."""
        if timer[0] > self.now:
            self._withdraw(timer)
            self._schedule_now(step)
        else:
            self._schedule_now(_lost)

    def _passed(self):
        """An event the running process continues past in place, whatever
        is due: what it yields for work that takes no time (a hold of no cycles)."""
        event = Event(self)
        event._value = event.callbacks = None
        self._spot = event
        self._spot_at = self.now
        return event

    # -- factories -------------------------------------------------------

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        """A :class:`Timeout`; one a running process makes is yielded at
        once, so it may be slept on the spot (rule 3)."""
        delay = int(delay)
        if delay <= 0:  # an instant is never slept; a negative one raises
            return Timeout(self, delay, value)
        heap = self._heap
        when = self.now + delay
        # Timeout.__init__ inlined; something due by then is the common answer.
        event = _new(Timeout)
        event.sim = self
        event._ok = event._scheduled = True
        if (not heap or heap[0][0] > when) and self._grant_on_the_spot(event, value, when):
            return event
        event._value = value
        event.callbacks = []
        self._seq += 1
        heappush(heap, (when, NORMAL, self._seq, event))
        return event

    def process(self, generator, name=None):
        return Process(self, generator, name=name)

    def all_of(self, events):
        return Condition(self, events, True)

    def any_of(self, events):
        return Condition(self, events, False)

    # -- running ---------------------------------------------------------

    def peek(self):
        """Timestamp of the next scheduled event, or None if empty."""
        return self.now if self._queue else self._heap[0][0] if self._heap else None

    def run(self, until=None):
        """Run until the heap drains or simulated time reaches ``until``.

        ``until`` may also be an :class:`Event`; the loop then runs until
        that event fires (its value is returned).

        One loop serves both bounds, ``stop`` (the target, or ``_NEVER``)
        and ``deadline`` (``int(until)``, or ``_FOREVER``), with the queue
        and the heap read as one sorted stream (``tests/sim``); the bounds
        are recorded on the simulator, so that nothing is taken on the spot
        or run from the queue that this run would not reach.
        """
        heap, queue = self._heap, self._queue
        count = 0
        outer = self._deadline, self._until, self._dispatching
        stop, deadline = _NEVER, _FOREVER
        try:
            for entry in queue:  # made between runs, or left when a target fired
                heappush(heap, entry)
            queue.clear()
            if isinstance(until, Event):
                stop = self._until = until
            elif until is not None:
                deadline = int(until)
                if deadline < self.now:
                    raise SimulationError("run(until={}) is before now ({})".format(deadline, self.now))
                self._deadline = deadline
            while heap and stop._value is PENDING:
                when = heap[0][0]
                if when > deadline:
                    break
                event = heappop(heap)[3]
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
                count += 1
                while True:
                    callbacks = event.callbacks
                    event.callbacks = None
                    self._dispatching = callbacks
                    for callback in callbacks:
                        callback(event)
                    if not queue or stop._value is not PENDING:
                        break  # what is left is pushed when the next run starts
                    if heap and heap[0] < queue[0]:
                        event = heappop(heap)[3]
                        count += 1
                    else:
                        event = queue.popleft()[3]
            if stop is _NEVER:
                if deadline is not _FOREVER:
                    self.now = deadline
                return None
            if stop._value is PENDING:
                raise SimulationError("simulation ran out of events before condition")
            if not stop._ok:
                raise stop._value
            return stop._value
        finally:
            self._event_count += count
            self._deadline, self._until, self._dispatching = outer

    @property
    def processed_events(self):
        return self._event_count
