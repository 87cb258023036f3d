"""Module API/chains and context-queue pair behavior."""

import pytest

from repro.flextoe.ctxq import ContextQueuePair
from repro.flextoe.descriptors import HC_TX_UPDATE, HostControlDescriptor, Notification, NOTIFY_RX
from repro.flextoe.module import ACTION_DROP, ACTION_PASS, DatapathModule, ModuleChain
from repro.proto import FLAG_ACK, make_tcp_frame
from repro.sim import Simulator


def frame():
    return make_tcp_frame(1, 2, 3, 4, 5, 6, flags=FLAG_ACK)


class Verdict(DatapathModule):
    """A module that answers every frame with one action, and counts."""

    def __init__(self, name, action, cost_cycles):
        self.name, self.action, self.cost_cycles, self.seen = name, action, cost_cycles, 0

    def handle(self, frame, meta):
        self.seen += 1
        return self.action


def test_chain_cost_and_management():
    chain = ModuleChain([Verdict("a", ACTION_PASS, 15), Verdict("b", ACTION_PASS, 20)])
    assert chain.total_cost == 35
    assert len(chain) == 2
    chain.remove("a")
    assert len(chain) == 1
    chain.add(Verdict("c", ACTION_PASS, 25))
    assert len(chain) == 2
    assert chain.total_cost == 45


def test_chain_short_circuits():
    counter = Verdict("count", ACTION_PASS, 20)
    chain = ModuleChain([Verdict("drop", ACTION_DROP, 15), counter])
    assert chain.run(frame(), None) == ACTION_DROP
    assert not counter.seen
    chain.remove("drop")
    assert chain.run(frame(), None) == ACTION_PASS
    assert counter.seen == 1


def test_ctxq_post_and_fetch():
    sim = Simulator()
    pair = ContextQueuePair(sim, context_id=1, capacity=4)
    for i in range(3):
        assert pair.post_hc(HostControlDescriptor(HC_TX_UPDATE, i, value=10))
    assert pair.hc_posted == 3
    batch = pair.nic_fetch_batch(max_batch=2)
    assert [d.conn_index for d in batch] == [0, 1]
    assert pair.has_outbound


def test_ctxq_capacity_overflow():
    sim = Simulator()
    pair = ContextQueuePair(sim, context_id=1, capacity=1)
    assert pair.post_hc(HostControlDescriptor(HC_TX_UPDATE, 0))
    assert not pair.post_hc(HostControlDescriptor(HC_TX_UPDATE, 1))


def test_ctxq_deliver_wakes_waiters():
    sim = Simulator()
    pair = ContextQueuePair(sim, context_id=1)
    woke = []

    def sleeper(sim, name):
        yield pair.wait()
        woke.append(name)

    sim.process(sleeper(sim, "a"))
    sim.process(sleeper(sim, "b"))
    sim.run()
    assert not woke
    pair.nic_deliver(Notification(NOTIFY_RX, 0, 0, length=10))
    sim.run()
    assert sorted(woke) == ["a", "b"]
    assert pair.interrupts == 1  # one MSI-X for the batch of sleepers


def test_ctxq_wait_with_pending_returns_immediately():
    sim = Simulator()
    pair = ContextQueuePair(sim, context_id=1)
    pair.nic_deliver(Notification(NOTIFY_RX, 0, 0, length=1))
    event = pair.wait()
    assert event.triggered
    assert pair.poll() is not None
    assert pair.poll() is None
