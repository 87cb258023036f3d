"""Idle costs (almost) nothing: a testbed with no connections only pays
for the control plane's periodic loops (paper §3.1: the data path is
work-driven; §3.4: only the control plane runs on a period)."""

from repro.harness import Testbed

IDLE_SIM_MS = 10
#: Events per idle simulated millisecond for two FlexTOE hosts. With a
#: publisher process per stage group this read about 1 800; the guard
#: keeps the next periodic process from quietly bringing that back.
IDLE_EVENTS_PER_SIM_MS = 150


def test_idle_testbed_stays_within_its_event_budget():
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    bed.sim.run(until=1_000_000)  # stage threads start up and park on their rings
    started = bed.sim.processed_events
    bed.sim.run(until=bed.sim.now + IDLE_SIM_MS * 1_000_000)
    assert bed.sim.processed_events - started <= IDLE_EVENTS_PER_SIM_MS * IDLE_SIM_MS
    for host in (server, client):
        names = [process.name for process in host.nic.datapath.processes]
        assert names and not any(name.startswith("hb-") for name in names)
