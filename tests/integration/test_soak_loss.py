"""Soak tests: data integrity end-to-end under sustained loss.

Every stack must deliver byte-exact streams through a lossy switch —
the strongest correctness property of the whole repository, because it
exercises retransmission, reassembly, window management, and (for
FlexTOE) the control-plane RTO path together.

Loss is injected through the :mod:`repro.faults` plan API (a
``BurstLoss`` with burst length 1 is classic uniform drop), so these
runs land in a deterministic injection log like every other fault
campaign.
"""

import zlib

import pytest

from repro.faults import BurstLoss, FaultPlan
from repro.harness import STACKS, Testbed, build_host
from tests.integration.driver import run_apps


def stable_seed(*parts):
    """Per-case seed that survives hash randomization across runs."""
    return zlib.crc32(repr(parts).encode()) & 0xFFFF


def uniform_loss_plan(probability):
    return FaultPlan("soak-loss").add(
        BurstLoss(probability=probability, burst_min=1, burst_max=1)
    )


def build(stack, loss, seed):
    bed = Testbed(seed=seed)
    server = build_host(bed, stack, "server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    controller = bed.install_fault_plan(uniform_loss_plan(loss))
    return bed, server, client, controller


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("loss", [0.02, 0.10])
def test_stream_integrity_under_loss(stack, loss):
    bed, server, client, controller = build(stack, loss, seed=stable_seed(stack, loss))
    payload = bytes((7 * i) % 256 for i in range(30_000))
    results = {}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        got = b""
        while len(got) < len(payload):
            chunk = yield from server_ctx.recv(sock, 65536)
            if not chunk:
                break
            got += chunk
        results["got"] = got
        yield from server_ctx.send(sock, got[-1000:])

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.send(sock, payload)
        tail = b""
        while len(tail) < 1000:
            chunk = yield from client_ctx.recv(sock, 4096)
            if not chunk:
                break
            tail += chunk
        results["tail"] = tail

    apps = [
        bed.sim.process(server_app(), name="server"),
        bed.sim.process(client_app(), name="client"),
    ]
    run_apps(bed, apps, deadline_ns=3_000_000_000)  # 3 s: covers many RTOs
    dropped = len(controller.log.actions("drop"))
    if loss >= 0.05:
        # Low-loss cells on TSO-sized baseline streams can legitimately
        # see zero drops; the heavy tier must always inject.
        assert dropped > 0, "loss plan injected nothing at {}%".format(loss * 100)
    assert results.get("got") == payload, "{} corrupted/incomplete at {}% loss ({} drops)".format(
        stack, loss * 100, dropped
    )
    assert results.get("tail") == payload[-1000:]


def test_bidirectional_soak_with_loss_flextoe_pair():
    bed, server, client, controller = build("flextoe", 0.05, seed=77)
    blob = bytes((3 * i + 1) % 256 for i in range(20_000))
    results = {}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def pump(ctx, sock, results, key):
        send_proc = ctx.sim.process(ctx.send(sock, blob))
        got = b""
        while len(got) < len(blob):
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                break
            got += chunk
        yield send_proc
        results[key] = got

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        yield from pump(server_ctx, sock, results, "server")

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from pump(client_ctx, sock, results, "client")

    apps = [
        bed.sim.process(server_app(), name="server"),
        bed.sim.process(client_app(), name="client"),
    ]
    run_apps(bed, apps, deadline_ns=3_000_000_000)
    assert len(controller.log.actions("drop")) > 0
    assert results.get("server") == blob
    assert results.get("client") == blob
