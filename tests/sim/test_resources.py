"""Unit tests for stores, priority stores, and resources."""

import pytest

from repro.sim import Resource, Simulator, Store, Timeout
from repro.sim.core import SimulationError
from repro.sim.resources import Slots


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    seen = []

    def producer(sim):
        for i in range(5):
            yield store.put(i)
            yield sim.timeout(1)

    def consumer(sim):
        for _ in range(5):
            item = yield store.get()
            seen.append(item)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    log = []

    def consumer(sim):
        item = yield store.get()
        log.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(25)
        yield store.put("x")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert log == [(25, "x")]


def test_bounded_store_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=2)
    log = []

    def producer(sim):
        for i in range(4):
            yield store.put(i)
            log.append(("put", i, sim.now))

    def consumer(sim):
        yield sim.timeout(10)
        for _ in range(4):
            yield store.get()
            yield sim.timeout(10)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    # First two puts complete at t=0; the rest wait for consumer drains.
    assert log[0][2] == 0
    assert log[1][2] == 0
    assert log[2][2] == 10
    assert log[3][2] == 20


def test_store_force_put_overshoots_and_try_get_drains():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.force_put("a")
    store.force_put("b")  # past the bound: the overflow path never refuses
    assert store.is_full and len(store) == 2
    assert store.try_get() == (True, "a")
    assert store.try_get() == (True, "b")
    assert store.try_get() == (False, None)


def test_store_try_get_unblocks_waiting_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    done = []

    def producer(sim):
        yield store.put(1)
        yield store.put(2)
        done.append(sim.now)

    sim.process(producer(sim))
    sim.run()
    assert not done  # second put blocked
    ok, item = store.try_get()
    assert ok and item == 1
    sim.run()
    assert done  # unblocked by the try_get


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)
    store = Store(sim, capacity=2)
    with pytest.raises(SimulationError, match="must be positive"):
        store.set_capacity(0)
    assert store.capacity == 2  # a refused bound leaves the old one


def test_every_slot_kind_needs_a_slot():
    sim = Simulator()
    with pytest.raises(SimulationError, match="resource capacity must be positive"):
        Resource(sim, capacity=0)
    with pytest.raises(SimulationError, match="slot capacity must be positive"):
        Slots(sim, capacity=0)


def test_store_tracks_max_occupancy():
    sim = Simulator()
    store = Store(sim)
    for i in range(7):
        store.force_put(i)
    for _ in range(3):
        store.try_get()
    assert store.max_occupancy == 7


def test_resource_mutual_exclusion():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    timeline = []

    def worker(sim, name, hold):
        grant = yield resource.request()
        timeline.append((name, "acquired", sim.now))
        yield sim.timeout(hold)
        grant.release()
        timeline.append((name, "released", sim.now))

    sim.process(worker(sim, "a", 10))
    sim.process(worker(sim, "b", 10))
    sim.run()
    assert timeline == [
        ("a", "acquired", 0),
        ("a", "released", 10),
        ("b", "acquired", 10),
        ("b", "released", 20),
    ]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    acquired_at = []

    def worker(sim):
        grant = yield resource.request()
        acquired_at.append(sim.now)
        yield sim.timeout(10)
        grant.release()

    for _ in range(4):
        sim.process(worker(sim))
    sim.run()
    assert acquired_at == [0, 0, 10, 10]


def test_resource_context_manager_releases():
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def worker(sim):
        with (yield resource.request()):
            yield sim.timeout(5)

    sim.process(worker(sim))
    sim.process(worker(sim))
    sim.run()
    assert sim.now == 10
    assert resource.in_use == 0


def test_resource_double_release_rejected():
    sim = Simulator()
    resource = Resource(sim)

    def worker(sim):
        grant = yield resource.request()
        grant.release()
        with pytest.raises(SimulationError):
            grant.release()

    sim.process(worker(sim))
    sim.run()


def test_a_request_released_before_its_grant_leaves_the_queue_and_never_holds():
    # A waiter that gives up (a timeout raced against the grant) releases
    # its request: the next in line gets the slot, and the withdrawn one
    # never does.
    sim = Simulator()
    resource = Resource(sim)
    log = []

    def holder():
        grant = yield resource.request()
        yield sim.timeout(10)
        grant.release()

    def impatient():
        request = resource.request()
        yield sim.any_of([request, Timeout(sim, 3)])
        request.release()
        log.append(("gave up", sim.now, request.triggered))

    def patient():
        with (yield resource.request()):
            log.append(("granted", sim.now))

    sim.process(holder())
    sim.process(impatient())
    sim.process(patient())
    sim.run()
    assert log == [("gave up", 3, False), ("granted", 10)]
    assert resource.in_use == 0
