"""Shared-resource primitives: FIFO stores and semaphores.

These are the communication channels between simulated components: ring
buffers between pipeline stages are bounded :class:`Store` objects, FPC
issue slots are :class:`Resource` objects, and so on.

A process yields the event of a ``request()`` or ``get()`` at once, as
it does a ``sim.timeout()``: one that is satisfied while the process is
next in line is granted on the spot and never enters the heap
(:meth:`Simulator._grant_on_the_spot
<repro.sim.core.Simulator._grant_on_the_spot>`, DESIGN §12 rule 3).
"""

from collections import deque

from repro.sim.core import Event, SimulationError


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store, item):
        super().__init__(store.sim)
        self.item = item
        store._put_queue.append(self)
        store._settle()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store):
        sim = store.sim
        super().__init__(sim)
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
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items = deque()
        self._put_queue = deque()
        self._get_queue = deque()
        self.max_occupancy = 0

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

    def try_put(self, item):
        """Non-blocking put. Returns True if the item was accepted."""
        if self.is_full:
            return False
        self._accept(item)
        return True

    def try_get(self):
        """Non-blocking get. Returns (True, item) or (False, None)."""
        if self.items:
            item = self.items.popleft()
            self._settle()
            return True, item
        return False, None

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

    @property
    def queued(self):
        return len(self._queue)

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
