"""Shared-resource primitives: FIFO stores, semaphores and engine slots.

These are the communication channels between simulated components: ring
buffers between pipeline stages are bounded :class:`Store` objects, pools
and locks are :class:`Resource` objects, and the slots hardware engines
hold — an FPC's issue slot, a host core, a DMA queue — are :class:`Slots`,
held by a :class:`Hold` a process yields or by an engine's steps.

A process yields a ``request()``, ``get()`` or ``put()`` at once; what
would be the next dispatch runs in place, and what is made for ``now``
joins the simulator's same-instant queue (DESIGN §12 rule 3).
"""

from collections import deque
from heapq import heappush

from repro.sim.core import NORMAL, PENDING, Event, SimulationError


class StorePut(Event):
    """A put; one into a store with a parked get hands it the item and
    fires right after that get."""

    __slots__ = ("item",)

    def __init__(self, store, item):
        sim = self.sim = store.sim
        self.callbacks = []
        self._ok = True
        self.item = item
        gets = store._get_queue
        if gets:  # so the store is empty: the item passes straight through
            store.max_occupancy = store.max_occupancy or 1
            gets.popleft().succeed(item)
            self._value = None
            self._scheduled = True
            sim._seq += 1
            sim._queue.append((sim.now, NORMAL, sim._seq, self))
        else:
            self._value = PENDING
            self._scheduled = False
            store._put_queue.append(self)
            store._settle()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store):
        # Event.__init__ inlined: a get per ring hop.
        sim = self.sim = store.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        # An item present means no get is parked (see Store._settle).
        items = store.items
        if items and sim._grant_on_the_spot(self, items[0], sim.now):
            items.popleft()
        else:
            store._get_queue.append(self)
        store._settle()


class Store:
    """A FIFO channel with optional bounded capacity.

    ``put(item)`` returns an event that fires once the item is accepted
    (immediately if there is room). ``get()`` returns an event whose value
    is the retrieved item.
    """

    def __init__(self, sim, capacity=None, name=None):
        self.sim = sim
        self.name = name
        self.items = deque()
        self._put_queue = deque()
        self._get_queue = deque()
        self.max_occupancy = 0
        self.set_capacity(capacity)

    def __len__(self):
        return len(self.items)

    @property
    def is_full(self):
        return self.capacity is not None and len(self.items) >= self.capacity

    def set_capacity(self, capacity):
        """Change the bound at runtime (fault injection: backpressure).

        Shrinking never discards queued items — the store just refuses
        new puts until occupancy falls below the new bound. Growing (or
        passing ``None``) releases blocked puts immediately.
        """
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.capacity = capacity
        self._settle()

    def put(self, item):
        return StorePut(self, item)

    def get(self):
        return StoreGet(self)

    def try_get(self):
        """Non-blocking get. Returns (True, item) or (False, None)."""
        if self.items:
            item = self.items.popleft()
            self._settle()
            return True, item
        return False, None

    def deliver(self, item):
        """A non-blocking put into a store with room (an engine step's
        frame arrival); raises when it is full."""
        gets = self._get_queue
        if gets:  # the store is empty: the item passes straight through
            self.max_occupancy = self.max_occupancy or 1
            gets.popleft().succeed(item)
        elif self.is_full:
            raise SimulationError("deliver() into a full store: ask is_full first")
        else:
            self._accept(item)

    def force_put(self, item):
        """Insert even when full (capacity overshoot); wakes waiting gets.

        For internal flow-control situations where blocking would
        deadlock (e.g. a reorder buffer draining into a stage ring).
        """
        self._accept(item)

    def _accept(self, item):
        """Take ``item`` in; a get parked on the empty store takes it out."""
        items = self.items
        items.append(item)
        if len(items) > self.max_occupancy:
            self.max_occupancy = len(items)
        gets = self._get_queue
        while items and gets:
            gets.popleft().succeed(items.popleft())

    def _settle(self):
        """Move everything that can move: items to parked gets, then
        blocked puts into the room that leaves.

        Every mutation ends here, so a store never rests holding both
        an item and a parked get, or both room and a blocked put. The
        order of the ``succeed`` calls is the order the waiters resume
        in: a get served by a put fires before that put does.
        """
        items, gets, puts = self.items, self._get_queue, self._put_queue
        while items and gets:
            gets.popleft().succeed(items.popleft())
        while puts and not self.is_full:
            put = puts.popleft()
            self._accept(put.item)
            put.succeed()


class ResourceRequest(Event):
    __slots__ = ("resource",)

    def __init__(self, resource):
        sim = resource.sim
        super().__init__(sim)
        self.resource = resource
        # A free slot means nobody is queued (see Resource._grant).
        if len(resource._users) < resource.capacity and sim._grant_on_the_spot(self, self, sim.now):
            resource._users.add(self)
        else:
            resource._queue.append(self)
            resource._grant()

    def release(self):
        self.resource.release(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.release()
        return False


class Resource:
    """A counting semaphore with FIFO granting.

    ::

        with (yield resource.request()) as grant:
            ... exclusive section ...
    """

    def __init__(self, sim, capacity=1, name=None):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._queue = deque()
        self._users = set()

    @property
    def in_use(self):
        return len(self._users)

    def request(self):
        return ResourceRequest(self)

    def release(self, request):
        if request in self._users:
            self._users.remove(request)
        elif request in self._queue:
            self._queue.remove(request)
        else:
            raise SimulationError("releasing a grant that is not held")
        self._grant()

    def _grant(self):
        """Grant queued requests in FIFO order while a slot is free, so a
        resource never rests with both a free slot and a queued request."""
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._users.add(request)
            request.succeed(request)


class Slots:
    """``capacity`` slots granted in FIFO order to engine operations: an
    FPC's issue slot and a host core (capacity 1), a DMA queue (128).

    A :class:`Resource` in all but the process: a slot reaching a waiting
    operation queues its turn (a :class:`~repro.sim.core.Step`) where the
    resource made its grant. Each :class:`Hold` adds its cycles to
    ``busy_cycles`` at its end, and those of a category to
    ``accounting.charge(category, cycles)``.
    """

    __slots__ = ("sim", "capacity", "name", "accounting", "busy_cycles", "in_use", "_waiting")

    def __init__(self, sim, capacity=1, name=None, accounting=None):
        if capacity <= 0:
            raise SimulationError("slot capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.accounting = accounting
        self.busy_cycles = 0
        self.in_use = 0
        self._waiting = deque()  # what each waiter runs when a slot reaches it

    def take(self, turn):
        """Take a free slot (True), or queue the engine step ``turn`` to run
        when one reaches the caller (False). Nothing runs here: where an
        operation is issued, its caller pushes its first step."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        self._waiting.append(turn)
        return False

    def hand_on(self):
        """Release a slot: the longest waiter's turn is queued now, or the
        slot is free."""
        if self._waiting:
            self.sim._schedule_now(self._waiting.popleft())
        else:
            self.in_use -= 1


class Hold(Event):
    """One of ``slots`` held for ``ns`` by the running process, as the one
    event it yields (``yield core.run(cycles)``). It fires when the
    hold ends; its first callback charges ``cycles`` (of ``category``, if
    any) to ``slots`` and hands the slot on, then the holder resumes: the
    order of a process that requested, slept and released, each step taken
    where that process took it (DESIGN §12 rule 3). A free slot is granted
    on the spot when the holder is next in line now, and the whole hold
    taken on the spot if nothing is due before it ends; otherwise a turn (a
    :class:`~repro.sim.core.Step`) is queued where the grant was, now or
    when the slot reaches the hold, and sleeps in place or pushes the hold.
    A holder interrupted while it waits for or holds the slot never hands
    it on, as its generator died at the ``yield``."""

    __slots__ = ("slots", "ns", "cycles", "category")
    # Born fired, never failed nor posted: one store fewer each per hold.
    _ok = True
    _scheduled = True

    def __init__(self, slots, ns, cycles, category=None):
        sim = self.sim = slots.sim
        if slots.in_use < slots.capacity:
            now = sim.now
            heap = sim._heap
            if heap and heap[0][0] <= now or sim._queue:
                # Something due now, the common answer under load: the
                # holder is not next in line (the test below says no too).
                sim._schedule_now(self._turn)
            elif ns > 0 and sim._grant_on_the_spot(self, None, now + ns):
                # Granted, slept and released: charged as _end does.
                slots.busy_cycles += cycles
                if category is not None:
                    slots.accounting.charge(category, cycles)
                return
            else:
                process = sim._active_process
                if process is not None and sim._next_in_line(now, process._resume_cb):
                    sim._seq += 1  # granted on the spot; the sleep is pushed
                    heappush(heap, (now + ns, NORMAL, sim._seq, self))
                else:
                    sim._schedule_now(self._turn)
            slots.in_use += 1
        else:
            slots._waiting.append(self._turn)
        self.callbacks = [self._end]
        self._value = None
        self.slots = slots
        self.ns = ns
        self.cycles = cycles
        self.category = category

    def _turn(self, _step):
        """The slot reached the hold: sleep, where the holder's timeout did."""
        callbacks = self.callbacks
        if len(callbacks) < 2:
            return  # the holder was interrupted in the queue: it keeps the slot
        sim = self.sim
        ns = self.ns
        when = sim.now + ns
        if ns > 0 and sim._next_in_line(when):
            sim.now = when  # dispatched in place, the holder last as ever
            self.callbacks = None
            sim._dispatching = callbacks
            for callback in callbacks:
                callback(self)
        else:
            sim._seq += 1
            heappush(sim._heap, (when, NORMAL, sim._seq, self))

    def _end(self, _hold):
        # A holder interrupted mid-hold is no longer among the callbacks:
        # it never releases.
        if len(self.sim._dispatching) > 1:
            slots = self.slots
            slots.busy_cycles += self.cycles
            if self.category is not None:
                slots.accounting.charge(self.category, self.cycles)
            slots.hand_on()


class Occupancy:
    """A slot of ``slots`` taken ``ns`` by no process (fault injection: an
    FPC stall, a stolen host core), calling ``on_grant(ns)`` once it holds
    the slot. A free slot is taken where the occupancy is made, and its end
    pushed; a busy one queues a turn, which sleeps under rule 3's test."""

    __slots__ = ("slots", "ns", "on_grant")

    def __init__(self, slots, ns, on_grant):
        self.slots = slots
        self.ns = ns
        self.on_grant = on_grant
        if slots.take(self._granted):
            on_grant(ns)
            slots.sim._schedule(slots.sim.now + int(ns), self._end)

    def _granted(self, _step):
        self.on_grant(self.ns)
        self.slots.sim._after(int(self.ns), self._end)

    def _end(self, _step):
        self.slots.hand_on()
