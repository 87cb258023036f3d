"""NIC / host / link fault lifecycle units on a minimal live testbed."""

import pytest

from repro.faults import (
    CoreJitter,
    DmaFlake,
    DoorbellLoss,
    FaultPlan,
    FpcStall,
    LinkFlap,
    MmioDelay,
    QueueBackpressure,
    StateCacheEvict,
)
from repro.harness import Testbed


def one_host_bed(seed=1):
    bed = Testbed(seed=seed)
    host = bed.add_flextoe_host("a")
    return bed, host


def test_dma_flake_installs_and_removes_hook():
    bed, host = one_host_bed()
    bed.install_fault_plan(
        FaultPlan("p").add(DmaFlake(probability=1.0, retry_delay_ns=123, duration_ns=1_000_000))
    )
    dma = host.nic.chip.dma
    bed.sim.run(until=10)
    assert dma.fault_hook is not None
    assert dma.fault_hook(64) == 123  # certain flake returns the retry delay
    bed.sim.run(until=2_000_000)
    assert dma.fault_hook is None, "hook must be removed when the window closes"


def test_doorbell_loss_hook_drops():
    bed, host = one_host_bed()
    bed.install_fault_plan(FaultPlan("p").add(DoorbellLoss(probability=1.0)))
    bed.sim.run(until=10)
    assert host.nic.chip.pcie.mmio_fault("db") is None  # None == dropped write


def test_mmio_delay_chains_after_prior_hook():
    bed, host = one_host_bed()
    bed.install_fault_plan(
        FaultPlan("p")
        .add(DoorbellLoss(probability=0.0))
        .add(MmioDelay(extra_ns=777))
    )
    bed.sim.run(until=10)
    assert host.nic.chip.pcie.mmio_fault("db") == 777


def test_queue_backpressure_saves_and_restores_capacity():
    bed, host = one_host_bed()
    rings = [host.nic.datapath.dma_ring]
    before = [ring.capacity for ring in rings]
    bed.install_fault_plan(
        FaultPlan("p").add(QueueBackpressure(ring="dma", capacity=1, duration_ns=1_000_000))
    )
    bed.sim.run(until=10)
    assert [ring.capacity for ring in rings] == [1]
    bed.sim.run(until=2_000_000)
    assert [ring.capacity for ring in rings] == before


def test_state_cache_evict_flushes_every_group():
    bed, host = one_host_bed()
    controller = bed.install_fault_plan(
        FaultPlan("p").add(StateCacheEvict(period_ns=100_000, duration_ns=350_000))
    )
    bed.sim.run(until=1_000_000)
    stages = host.nic.datapath.protocol_stages
    assert stages, "expected protocol stages on a full pipeline"
    assert all(stage.state_cache.forced_flushes >= 3 for stage in stages)
    assert len(controller.log.actions("flush")) == 4 * len(stages)


def test_fpc_stall_hits_stage_fpcs():
    bed, host = one_host_bed()
    bed.install_fault_plan(
        FaultPlan("p").add(FpcStall(stage="proto", stall_ns=10_000, period_ns=100_000, duration_ns=250_000))
    )
    bed.sim.run(until=1_000_000)
    fpcs = host.nic.datapath.stage_fpcs["proto"]
    assert fpcs
    assert all(fpc.stalls >= 2 for fpc in fpcs)
    assert all(fpc.stalled_ns >= 20_000 for fpc in fpcs)


@pytest.mark.parametrize(
    "fault", [FpcStall(stage="typo", period_ns=100_000), QueueBackpressure(ring="typo")], ids=["stage", "ring"]
)
def test_mistyped_stage_or_ring_is_an_error(fault):
    # A fault naming a kind the data path never registered must not pass
    # every invariant by silently injecting nothing.
    bed, _host = one_host_bed()
    bed.install_fault_plan(FaultPlan("p").add(fault))
    with pytest.raises(ValueError, match="unknown (stage|ring) 'typo'"):
        bed.sim.run(until=1_000_000)


def test_core_jitter_steals_the_core():
    bed, host = one_host_bed()
    bed.install_fault_plan(
        FaultPlan("p").add(CoreJitter(core=0, busy_ns=5_000, period_ns=50_000, duration_ns=120_000))
    )
    bed.sim.run(until=500_000)
    core = host.machine.cores[0]
    assert core.steals >= 2
    assert core.stolen_ns >= 10_000


def test_link_flap_bounces_the_link():
    bed, host = one_host_bed()
    controller = bed.install_fault_plan(
        FaultPlan("p").add(LinkFlap(down_ns=1_000, period_ns=100_000, duration_ns=250_000))
    )
    bed.sim.run(until=1_000_000)
    link = bed.topology.stations["a"].port.link
    assert link.up, "link must come back up after each flap"
    downs = controller.log.actions("link-down")
    ups = controller.log.actions("link-up")
    assert len(downs) == len(ups) >= 2


def test_when_predicate_defers_activation():
    bed, host = one_host_bed()
    gate = {"open": False}
    bed.install_fault_plan(
        FaultPlan("p").add(
            DoorbellLoss(probability=1.0, when=lambda _bed: gate["open"], poll_ns=10_000)
        )
    )
    bed.sim.run(until=100_000)
    assert host.nic.chip.pcie.mmio_fault is None, "activated before the predicate held"
    gate["open"] = True
    bed.sim.run(until=200_000)
    assert host.nic.chip.pcie.mmio_fault is not None
