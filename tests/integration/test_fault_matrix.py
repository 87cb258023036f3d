"""Fault matrix (ISSUE 2 acceptance bar): every interop stack pair must
survive the three canonical fault plans — bursty loss, a reordering
window, and transient DMA failures — with byte-exact delivery in both
directions and no wedge inside the horizon.

Each cell reuses :func:`repro.faults.cli.run_plan` (the same harness the
``python -m repro faults`` CLI runs), so a matrix failure reproduces
from the command line with the printed plan/seed/stack arguments.
"""

import pytest

from repro.control import ControlPlaneConfig
from repro.faults.cli import run_plan
from repro.faults.invariants import LivenessViolation, counters_snapshot, run_until
from repro.faults.plans import CANONICAL
from repro.libtoe.errors import ConnectionTimeoutError, PeerResetError
from repro.proto import make_tcp_frame
from repro.proto.tcp import FLAG_ACK, FLAG_PSH, FLAG_RST
from tests.integration.driver import DRAIN_NS, assert_drained, run_apps

STACKS = ["flextoe", "linux", "tas", "chelsio"]
PLANS = sorted(CANONICAL)
SEED = 11
N_BYTES = 6000


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("server_stack", STACKS)
@pytest.mark.parametrize("client_stack", STACKS)
def test_fault_matrix(plan, server_stack, client_stack):
    result = run_plan(
        plan,
        seed=SEED,
        server_stack=server_stack,
        client_stack=client_stack,
        n_bytes=N_BYTES,
    )
    assert not result["violations"], (
        "plan={} {}<-{}: {} (repro: python -m repro faults --plan {} --seed {} "
        "--server {} --client {} --bytes {})".format(
            plan,
            server_stack,
            client_stack,
            "; ".join(result["violations"]),
            plan,
            SEED,
            server_stack,
            client_stack,
            N_BYTES,
        )
    )
    assert result["finished_ns"] is not None


def test_bursty_loss_moves_retransmit_counters():
    """Under sustained bursty loss on a longer stream, the recovery
    machinery must actually fire: retransmission counters move."""
    result = run_plan(
        "bursty-loss", seed=7, server_stack="flextoe", client_stack="flextoe", n_bytes=60000
    )
    assert not result["violations"]
    dropped = sum(
        count for key, count in result["event_counts"].items() if key.endswith("/drop")
    )
    assert dropped > 0, "plan injected no losses; tune the plan or seed"
    assert result["retransmit_events"] > 0, (
        "{} frames dropped but no retransmission counter moved".format(dropped)
    )


def test_dma_flake_injects_retries():
    """The dma-flake plan must exercise the DMA retry path on a FlexTOE
    NIC, and the stream must still be exact despite completion skew."""
    result = run_plan(
        "dma-flake", seed=7, server_stack="flextoe", client_stack="flextoe", n_bytes=60000
    )
    assert not result["violations"]
    retries = sum(
        count for key, count in result["event_counts"].items() if key.endswith("/dma-retry")
    )
    assert retries > 0, "no DMA retries injected; tune the plan or seed"


def test_host_pressure_drops_and_delays_doorbells():
    """The host-pressure plan loses an MMIO doorbell and delays others on
    a FlexTOE pair (``nfp/pcie.py``), and the stream is still exact."""
    result = run_plan(
        "host-pressure", seed=7, server_stack="flextoe", client_stack="flextoe", n_bytes=20000
    )
    assert not result["violations"]
    counts = result["event_counts"]
    assert counts.get("doorbellloss/doorbell-drop", 0) >= 1, counts
    assert counts.get("mmiodelay/mmio-delay", 0) >= 1, counts


# -- data-path crash recovery (ISSUE 4) -------------------------------------


def run_crash_workload(seed=7, pairs=16, n_bytes=20_000, server_config=None, deadline_ns=400_000_000):
    """16-pair echo workload with the server's datapath crashed mid
    transfer; returns (per-pair results, counters, injection digest).

    Raises LivenessViolation / ConnectionTimeoutError when the workload
    cannot complete — which is exactly what the recovery-disabled
    control asserts.
    """
    from repro.faults import make_plan
    from repro.harness import Testbed

    bed = Testbed(seed=seed)
    cp_kwargs = {"config": server_config} if server_config is not None else None
    server = bed.add_flextoe_host("server", cp_kwargs=cp_kwargs)
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    controller = bed.install_fault_plan(make_plan("nic-crash"))

    messages = {
        i: bytes((i * 7 + j) % 251 for j in range(n_bytes)) for i in range(pairs)
    }
    results = {i: {"echoed": b"", "reply": b""} for i in range(pairs)}
    done = {"count": 0}

    def server_app(i, ctx):
        listener = ctx.listen(7000 + i)
        sock = yield from ctx.accept(listener)
        data = b""
        while len(data) < n_bytes:
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                return
            data += chunk
        results[i]["echoed"] = data
        yield from ctx.send(sock, data[::-1])

    def client_app(i, ctx):
        sock = yield from ctx.connect(server.ip, 7000 + i)
        yield from ctx.send(sock, messages[i])
        reply = b""
        while len(reply) < n_bytes:
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                break
            reply += chunk
        results[i]["reply"] = reply
        done["count"] += 1

    for i in range(pairs):
        bed.sim.process(server_app(i, server.new_context()), name="server-{}".format(i))
        bed.sim.process(client_app(i, client.new_context()), name="client-{}".format(i))

    run_until(bed, lambda: done["count"] == pairs, deadline_ns, label="nic-crash")
    outcome = results, counters_snapshot(bed), controller.log.digest(), messages
    # The rebooted data path re-offloaded every connection mid-transfer;
    # once the transfer is over it must hold nothing, like any other.
    bed.sim.run(until=bed.sim.now + DRAIN_NS)
    assert_drained(bed)
    return outcome


def test_nic_crash_recovery_exact_delivery_16_pairs():
    """The headline invariant: a mid-transfer data-path crash on the
    server is detected by the watchdog, every connection is re-offloaded
    from its host shadow, and all 16 pairs still deliver byte-exactly —
    the peers see only a retransmission gap."""
    results, counters, digest, messages = run_crash_workload()
    for i, message in messages.items():
        assert results[i]["echoed"] == message, "pair {} c->s stream".format(i)
        assert results[i]["reply"] == message[::-1], "pair {} s->c stream".format(i)
    server = counters["server"]
    assert server["watchdog_fired"] >= 1
    assert server["recoveries"] >= 1
    assert server["nic_reboots"] >= 1
    assert server["reoffloaded"] == 16
    assert counters["client"]["aborts"] == 0


def test_nic_crash_recovery_is_deterministic():
    """Two same-seed runs produce identical injection digests, finish
    states, and counters."""
    r1 = run_crash_workload(seed=13, pairs=4, n_bytes=20_000)
    r2 = run_crash_workload(seed=13, pairs=4, n_bytes=20_000)
    assert r1[2] == r2[2]  # InjectionLog digest
    assert r1[1] == r2[1]  # full counters snapshot
    assert r1[0] == r2[0]  # delivered bytes


def test_nic_crash_without_recovery_strands_the_transfer():
    """The negative control: with recovery disabled the same seeded
    crash leaves the workload stranded (clients eventually abort with a
    typed timeout, or the run wedges to the deadline)."""
    config = ControlPlaneConfig(recovery_enabled=False)
    with pytest.raises((LivenessViolation, ConnectionTimeoutError)):
        run_crash_workload(
            seed=7, pairs=4, n_bytes=20_000, server_config=config, deadline_ns=100_000_000
        )


def test_degraded_mode_keeps_peers_alive_through_long_outage():
    """While the NIC is down the host slow-path shim answers peers with
    zero-window ACKs, parking them in persist state: even an outage far
    longer than the abort threshold must not RST-out any connection."""
    config = ControlPlaneConfig(reboot_delay_ns=50_000_000)
    results, counters, digest, messages = run_crash_workload(
        seed=7, pairs=2, n_bytes=120_000, server_config=config, deadline_ns=800_000_000
    )
    for i, message in messages.items():
        assert results[i]["reply"] == message[::-1]
    assert counters["server"]["slowpath_acks"] > 0
    assert counters["client"]["aborts"] == 0
    assert counters["server"]["recoveries"] == 1


def test_nic_crash_mid_close_with_arp_syn_and_rst_during_the_outage(sanitized):
    """Three connections' worth of outage behaviour on one crashed
    server. A: both FINs are in the shadow when the data path dies
    (``peer_fin_seen``, and ``fin_posted`` with the reply still unsent)
    — re-offload must deliver the reply and the FIN. B: the peer resets
    it during the outage, through the slow-path shim. C: a host that has
    never spoken to the server connects during the outage — its ARP
    request is answered by the shim's control plane, its SYN is dropped,
    and the retransmitted SYN lands after the reboot."""
    from repro.harness import Testbed

    bed = Testbed(seed=5)
    # Outage = detection + 500 us: wide enough to aim frames into, and
    # over before A's 2 ms linger would forget it with the reply unsent.
    config = ControlPlaneConfig(reboot_delay_ns=500_000)
    server = bed.add_flextoe_host("server", cp_kwargs={"config": config})
    client = bed.add_flextoe_host("client")
    late = bed.add_flextoe_host("late")  # no ARP seeded: it has to ask
    server.control_plane.seed_arp(client.ip, client.mac)
    client.control_plane.seed_arp(server.ip, server.mac)
    sim = bed.sim
    recovery = server.control_plane.recovery
    request = bytes(i % 251 for i in range(20_000))
    seen = {}

    def outage():
        while not recovery.shim.installed:
            yield sim.timeout(10_000)

    def closing_server(ctx):
        sock = yield from ctx.accept(ctx.listen(7000))
        got = b""
        while True:
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                break  # the client's FIN
            got += chunk
        seen["request"] = got
        yield from ctx.send(sock, got[::-1])
        yield from ctx.close(sock)
        shadow = recovery.shadows.get(sock.conn_index)
        seen["shadow_at_crash"] = (shadow.peer_fin_seen, shadow.fin_posted, shadow.tx_acked)
        server.nic.crash()

    def closing_client(ctx):
        sock = yield from ctx.connect(server.ip, 7000)
        yield from ctx.send(sock, request)
        yield from ctx.close(sock)
        got = b""
        while True:
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                break  # the server's re-armed FIN
            got += chunk
        seen["reply"] = got

    def reset_server(ctx):
        sock = yield from ctx.accept(ctx.listen(7001))
        seen["victim"] = sock.conn_index
        try:
            yield from ctx.recv(sock, 1024)
        except PeerResetError:
            seen["reset_while_degraded"] = recovery.degraded

    def reset_client(ctx):
        yield from ctx.connect(server.ip, 7001)
        yield from outage()
        shadow = recovery.shadows.get(seen["victim"])
        server_ip, client_ip, server_port, client_port = shadow.four_tuple

        def segment(sport, **kwargs):
            return make_tcp_frame(
                client.mac, server.mac, client_ip, server_ip, sport, server_port, **kwargs
            )

        # Nothing to answer: a segment of no known connection, a pure ACK.
        client.station.port.send(segment(9, seq=1, flags=FLAG_ACK | FLAG_PSH, payload=b"stray"))
        client.station.port.send(segment(client_port, seq=shadow.rcv_nxt, flags=FLAG_ACK))
        # The reset a dying peer would send, at exactly rcv_nxt.
        client.station.port.send(segment(client_port, seq=shadow.rcv_nxt, flags=FLAG_RST))

    def late_server(ctx):
        sock = yield from ctx.accept(ctx.listen(7002))
        data = yield from ctx.recv(sock, 1024)
        yield from ctx.send(sock, data.upper())

    def late_client(ctx):
        yield from outage()
        sock = yield from ctx.connect(server.ip, 7002)
        seen["connected_while_degraded"] = recovery.degraded
        yield from ctx.send(sock, b"after the outage")
        seen["late_reply"] = yield from ctx.recv(sock, 1024)

    apps = [
        sim.process(closing_server(server.new_context()), name="closing-server"),
        sim.process(closing_client(client.new_context()), name="closing-client"),
        sim.process(reset_server(server.new_context()), name="reset-server"),
        sim.process(reset_client(client.new_context()), name="reset-client"),
        sim.process(late_server(server.new_context()), name="late-server"),
        sim.process(late_client(late.new_context()), name="late-client"),
    ]
    run_apps(bed, apps, deadline_ns=100_000_000)

    assert seen["shadow_at_crash"] == (True, True, 0)
    assert seen["request"] == request and seen["reply"] == request[::-1]
    assert seen["reset_while_degraded"] is True
    assert seen["connected_while_degraded"] is False and seen["late_reply"] == b"AFTER THE OUTAGE"
    counters = counters_snapshot(bed)
    assert counters["server"]["recoveries"] == 1 and counters["server"]["resets_received"] == 1
    assert counters["late"]["syn_retransmits"] == 1
    # ARP, stray, pure ACK, RST, SYN: two dropped, none acknowledged.
    shim = recovery.shim
    assert (shim.frames_seen, shim.frames_dropped, shim.acks_sent) == (5, 2, 0)
    # B died in the outage, so only A was re-offloaded (C came after).
    assert counters["server"]["reoffloaded"] == 1
