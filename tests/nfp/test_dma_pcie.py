"""DMA engine and PCIe doorbell/MSI-X behavior."""

from repro.nfp import DmaEngine, PcieBlock
from repro.nfp.pcie import MMIO_WRITE_NS
from repro.sim import Simulator


def test_dma_completion_includes_latency_and_transfer():
    sim = Simulator()
    dma = DmaEngine(sim, latency_ns=700, bandwidth_bps=8_000_000_000)
    done_at = []

    def issuer(sim):
        done = dma.issue(0, 1000)  # 1000B at 1 GB/s = 1000 ns
        yield done
        done_at.append(sim.now)

    sim.process(issuer(sim))
    sim.run()
    assert done_at == [1700]
    assert dma.ops == 1
    assert dma.bytes_moved == 1000


def test_dma_bandwidth_is_shared():
    sim = Simulator()
    dma = DmaEngine(sim, latency_ns=0, bandwidth_bps=8_000_000_000)
    completions = []

    def issuer(sim):
        events = [dma.issue(i % 2, 1000) for i in range(4)]
        for event in events:
            yield event
        completions.append(sim.now)

    sim.process(issuer(sim))
    sim.run()
    # 4 x 1000B at 1 GB/s on a shared bus: total 4 us.
    assert completions == [4000]


def test_dma_queue_depth_limits_concurrency():
    sim = Simulator()
    dma = DmaEngine(sim, n_queues=1, queue_depth=2, latency_ns=1000, bandwidth_bps=10**15)
    done_at = {}

    def issuer(sim, i):
        yield dma.issue(0, 0)
        done_at[i] = sim.now

    for i in range(4):
        sim.process(issuer(sim, i))
    sim.run()
    # Two at a time: first pair at ~1000, second pair at ~2000.
    assert done_at[0] == 1000 and done_at[1] == 1000
    assert done_at[2] == 2000 and done_at[3] == 2000


def test_doorbell_wakes_waiter_after_mmio_delay():
    sim = Simulator()
    pcie = PcieBlock(sim)
    woke = []

    def nic_side(sim):
        yield pcie.wait_doorbell()
        woke.append(sim.now)

    sim.process(nic_side(sim))
    pcie.ring()
    sim.run()
    assert woke == [MMIO_WRITE_NS]


def test_doorbell_pending_ring_consumed_immediately():
    sim = Simulator()
    pcie = PcieBlock(sim)
    woke = []
    pcie.ring()

    def nic_side(sim):
        yield sim.timeout(10_000)
        yield pcie.wait_doorbell()
        woke.append(sim.now)

    sim.process(nic_side(sim))
    sim.run()
    assert woke == [10_000]


def test_each_ring_wakes_one_waiter():
    sim = Simulator()
    pcie = PcieBlock(sim)
    woke = []

    def nic_side(sim, name):
        yield pcie.wait_doorbell()
        woke.append(name)

    sim.process(nic_side(sim, "a"))
    sim.process(nic_side(sim, "b"))
    pcie.ring()
    sim.run()
    assert woke == ["a"]
    pcie.ring()
    sim.run()
    assert sorted(woke) == ["a", "b"]

