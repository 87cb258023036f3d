"""Deterministic, seeded fault injection for the FlexTOE testbed.

Compose :class:`FaultPlan` objects from typed :mod:`~repro.faults.events`
specs, install them on a :class:`~repro.harness.Testbed`, and assert
end-to-end invariants from :mod:`~repro.faults.invariants`. Every random
decision draws from a plan-scoped :class:`~repro.sim.RngPool` stream and
lands in an :class:`InjectionLog` whose digest is byte-stable across
same-seed runs. See DESIGN.md §10 for the fault model.
"""

from repro.faults.controller import FaultController
from repro.faults.events import (
    BurstLoss,
    CoreJitter,
    Corruption,
    DmaFlake,
    DoorbellLoss,
    Duplication,
    FaultSpec,
    FpcStall,
    LinkFlap,
    MmioDelay,
    NicCrash,
    QueueBackpressure,
    ReorderWindow,
    StateCacheEvict,
)
from repro.faults.invariants import (
    DeliveryViolation,
    InvariantViolation,
    LivenessViolation,
    assert_exact_delivery,
    counters_snapshot,
    run_until,
    total_retransmits,
)
from repro.faults.log import InjectionLog, describe_frame
from repro.faults.mangler import SegmentMangler
from repro.faults.plan import FaultPlan
from repro.faults.plans import CANONICAL, REGISTRY, canonical_plans, make_plan
from repro.faults.wire import WireFaultInjector

__all__ = [
    "BurstLoss",
    "CANONICAL",
    "CoreJitter",
    "Corruption",
    "DeliveryViolation",
    "DmaFlake",
    "DoorbellLoss",
    "Duplication",
    "FaultController",
    "FaultPlan",
    "FaultSpec",
    "FpcStall",
    "InjectionLog",
    "InvariantViolation",
    "LinkFlap",
    "LivenessViolation",
    "MmioDelay",
    "NicCrash",
    "QueueBackpressure",
    "REGISTRY",
    "ReorderWindow",
    "SegmentMangler",
    "StateCacheEvict",
    "WireFaultInjector",
    "assert_exact_delivery",
    "canonical_plans",
    "counters_snapshot",
    "describe_frame",
    "make_plan",
    "run_until",
    "total_retransmits",
]
