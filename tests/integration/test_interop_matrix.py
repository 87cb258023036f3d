"""Interoperability matrix (paper §1: FlexTOE interoperates with other
stacks): every client-stack x server-stack pair runs a two-RPC echo
exchange over the simulated switch with byte-exact verification."""

import pytest

from repro.harness import STACKS, Testbed, build_host
from tests.integration.driver import run_apps


def echo_exchange(server_stack, client_stack):
    bed = Testbed(seed=3)
    server = build_host(bed, server_stack, "server")
    client = build_host(bed, client_stack, "client")
    bed.seed_all_arp()
    sim = bed.sim
    results = {}

    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app(ctx):
        listener = ctx.listen(7000)
        sock = yield from ctx.accept(listener)
        for _ in range(2):
            data = b""
            while len(data) < 2000:
                chunk = yield from ctx.recv(sock, 65536)
                if not chunk:
                    return
                data += chunk
            yield from ctx.send(sock, data[::-1])

    def client_app(ctx):
        sock = yield from ctx.connect(server.ip, 7000)
        for round_id in range(2):
            message = bytes((round_id + i) % 256 for i in range(2000))
            yield from ctx.send(sock, message)
            reply = b""
            while len(reply) < 2000:
                chunk = yield from ctx.recv(sock, 65536)
                if not chunk:
                    break
                reply += chunk
            results["round%d" % round_id] = reply == message[::-1]
        results["done"] = True

    apps = [
        sim.process(server_app(server_ctx), name="server-app"),
        sim.process(client_app(client_ctx), name="client-app"),
    ]
    run_apps(bed, apps, deadline_ns=4_000_000_000)
    return results


@pytest.mark.parametrize("server_stack", STACKS)
@pytest.mark.parametrize("client_stack", STACKS)
def test_interop(server_stack, client_stack):
    results = echo_exchange(server_stack, client_stack)
    assert results.get("done"), "exchange did not complete ({} <- {})".format(
        server_stack, client_stack
    )
    assert results.get("round0")
    assert results.get("round1")
