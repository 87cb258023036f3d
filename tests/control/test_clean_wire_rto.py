"""A drop-free wire retransmits nothing (ROADMAP item 11, stage 1).

An incast queues at the bottleneck, so a segment's first RTT can exceed
the 250 µs RTO floor. The RTO therefore follows the measured RTT whether
or not congestion control runs. With CC off, the timer pass folds the
post stages' RTT samples itself. Until the first sample the RTO is 1 ms
(RFC 6298 §2.1, as the baselines' engine uses). A retransmission the
switch gave no cause for is a spurious RTO."""

import pytest

from repro.apps import EchoServer
from repro.apps.rpc import OpenLoopClient
from repro.harness import Testbed
from repro.net.switch import SwitchPortConfig

CLIENT_HOSTS = 4
REQUEST = 8 * 1024


def incast(cc_enabled, conns_per_host, pipeline, until_ns=2_000_000):
    """8 KB requests from four client hosts into one server whose switch
    port is shaped to 2.5 Gbps, ECN-marking at 16 KB, with room for all
    of it; returns (RTOs the clients fired, switch drops, CE marks, the
    clients' RTT estimates in µs)."""
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server")
    clients = [
        bed.add_flextoe_host("client%d" % i, cp_kwargs={"cc_enabled": cc_enabled}) for i in range(CLIENT_HOSTS)
    ]
    bed.seed_all_arp()
    port = server.station.switch_port
    bed.switch.set_port_config(
        port, SwitchPortConfig(rate_bps=2_500_000_000, queue_capacity_bytes=4 << 20, ecn_threshold_bytes=16 * 1024)
    )
    echo = EchoServer(server.new_context(0), 7000, request_size=REQUEST, response_size=32)
    bed.sim.process(echo.run(), name="echo")
    for i in range(CLIENT_HOSTS * conns_per_host):
        host = clients[i % CLIENT_HOSTS]
        rpc = OpenLoopClient(host.new_context(i // CLIENT_HOSTS), server.ip, 7000, REQUEST, 32, pipeline=pipeline)
        bed.sim.process(rpc.run(), name="rpc%d" % i)
    bed.sim.run(until=until_ns)
    stats = bed.switch.egress_stats(port)
    rtos = sum(client.control_plane.retransmits_posted for client in clients)
    rtts = [entry.record.post.rtt_est for client in clients for entry in client.control_plane.directory]
    return rtos, stats.dropped_tail + stats.dropped_red, stats.marked_ce, rtts


@pytest.mark.parametrize(
    "cc_enabled, conns_per_host, pipeline",
    [
        # 32 connections start at once: the first RTTs exceed 250 µs
        # before any sample exists (11 RTOs with the floor as initial RTO).
        (True, 8, 2),
        # No CC, so no rate loop and no CC pass: the queue grows past the
        # floor (12 RTOs with the RTO at the floor for want of a sample).
        (False, 2, 2),
    ],
)
def test_an_incast_with_no_drops_fires_no_rto(cc_enabled, conns_per_host, pipeline):
    rtos, drops, marked, rtts = incast(cc_enabled, conns_per_host, pipeline)
    assert marked > 0  # the bottleneck queued
    assert drops == 0
    assert rtos == 0
    assert max(rtts) > 0  # folded by the CC pass, or without one by the timer pass
