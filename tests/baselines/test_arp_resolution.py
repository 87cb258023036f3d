"""ARP on a host (``repro.host.arp.ArpResolver``, the one resolver of the
baseline hosts and the FlexTOE control plane): testbeds seed ARP tables,
so only a host built without ``Testbed.seed_all_arp()`` resolves — its
request is the switch's one broadcast, flooded to every other port in
one dispatch."""

import pytest

from repro.harness import Testbed, build_host
from repro.libtoe.errors import ConnectRefusedError

ABSENT_IP = 0x0A0000FE


def _unseeded_pair(stack="linux"):
    bed = Testbed(seed=3)
    server = build_host(bed, stack, "server")
    client = build_host(bed, stack, "client")
    return bed, server, client


def _arp_table(host):
    """A FlexTOE host resolves in its control plane."""
    return getattr(host, "control_plane", host).arp.table


def test_connect_resolves_through_the_switch_flood():
    bed, server, client = _unseeded_pair()
    server_ctx, client_ctx = server.new_context(), client.new_context()
    assert not _arp_table(client) and not _arp_table(server)

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        data = yield from server_ctx.recv(sock, 64)
        yield from server_ctx.send(sock, data)

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.send(sock, b"ping")
        return (yield from client_ctx.recv(sock, 64))

    bed.sim.process(server_app())
    assert bed.sim.run(until=bed.sim.process(client_app())) == b"ping"
    assert bed.switch.flooded == 1  # the request; the reply is unicast
    assert _arp_table(client) == {server.ip: server.mac}
    assert _arp_table(server) == {client.ip: client.mac}


@pytest.mark.parametrize("stack", ["linux", "flextoe"])
def test_an_absent_address_is_refused_after_the_arp_timeout(stack):
    bed, _server, client = _unseeded_pair(stack)
    ctx = client.new_context()
    outcome = []

    def client_app():
        started = bed.sim.now
        try:
            yield from ctx.connect(ABSENT_IP, 7000)
        except ConnectRefusedError as error:
            outcome.append((bed.sim.now - started, str(error)))

    bed.sim.run(until=bed.sim.process(client_app()))
    (elapsed, message), = outcome
    assert 5_000_000 <= elapsed < 5_100_000  # the 5 ms timeout, after the socket call's cycles
    assert "ARP resolution failed" in message
    assert bed.switch.flooded == 1 and ABSENT_IP not in _arp_table(client)


@pytest.mark.parametrize("seeded", [False, True])
def test_seeding_skips_the_broadcast(seeded):
    bed, server, client = _unseeded_pair()
    if seeded:
        bed.seed_all_arp()
    ctx = client.new_context()
    server.listen(server.new_context(), 7000)

    def client_app():
        yield from ctx.connect(server.ip, 7000)

    bed.sim.run(until=bed.sim.process(client_app()))
    assert bed.switch.flooded == (0 if seeded else 1)
