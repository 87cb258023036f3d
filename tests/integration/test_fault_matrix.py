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
from repro.libtoe.errors import ConnectionTimeoutError
from tests.integration.driver import DRAIN_NS, assert_drained

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
