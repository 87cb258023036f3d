"""The goodput-under-attack acceptance pins (ISSUE 9).

`run_attack_scenario` already raises AssertionError when a survivability
gate fails; these tests run the three scenarios in quick mode and pin
the headline numbers the CI attack-matrix job gates on:

  - defence on keeps >=50% of no-attack benign goodput,
  - defence off demonstrably collapses under the SYN flood,
  - CONN_SLAB's live-slot high-water mark stays at the benign level.
"""

import pytest

from repro.harness import Testbed
from tests.integration import attack_scenarios
from tests.integration.attack_scenarios import run_attack_scenario
from tests.integration.driver import DRAIN_NS, assert_drained


@pytest.fixture(scope="module")
def synflood():
    checks, metrics = run_attack_scenario("synflood", quick=True)
    return checks, metrics


def test_synflood_defense_on_keeps_goodput(synflood):
    checks, _metrics = synflood
    assert checks["on_ratio"] >= 0.5
    assert checks["detector_drops"] > 0
    assert checks["cookies_sent_on"] > 0


def test_synflood_defense_off_collapses(synflood):
    checks, _metrics = synflood
    assert checks["off_ratio"] < 0.5
    assert checks["off_completed"] < checks["baseline_completed"]


def test_synflood_slab_watermark_bounded(synflood):
    checks, _metrics = synflood
    # Defence off: the flood allocates offload state far past the
    # benign level. Defence on: the watermark stays where benign-only
    # load put it (small slack for handshakes racing the detector).
    assert checks["slab_watermark_off"] > checks["slab_watermark_on"]
    assert checks["slab_watermark_on"] <= checks["slab_watermark_off"] // 2


def test_churn_scenario_gates_hold(monkeypatch):
    beds = []

    def recording_testbed(**kwargs):
        beds.append(Testbed(**kwargs))
        return beds[-1]

    monkeypatch.setattr(attack_scenarios, "Testbed", recording_testbed)
    checks, metrics = run_attack_scenario("churn", quick=True)
    assert checks["on_ratio"] >= 0.5
    assert checks["detector_drops"] > 0
    # Churn burns host buffer memory; the detector must stop the burn.
    assert metrics["mem_used_on_bytes"] < metrics["mem_used_off_bytes"]
    # Teardown under load is where a work outlives its connection: once
    # the traffic stops, all three sub-runs' pipelines must hold nothing.
    assert len(beds) == 3
    for bed in beds:
        bed.sim.run(until=bed.sim.now + DRAIN_NS)
        assert_drained(bed)


def test_incast_scenario_stops_rst_reflection():
    checks, _metrics = run_attack_scenario("incast", quick=True)
    assert checks["rsts_reflected_off"] > 0
    assert checks["rsts_reflected_on"] < checks["rsts_reflected_off"]
    assert checks["on_ratio"] >= 0.5
