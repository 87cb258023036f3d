"""End-to-end connection splicing: client <-> proxy <-> backend.

The proxy terminates both connections, asks the control plane to splice
them, and from then on RPCs flow client<->backend entirely through the
proxy's NIC — the proxy host never sees another data segment (paper
§3.3 / AccelTCP)."""

import pytest

from repro.control.splice import SpliceError, SpliceManager
from repro.flextoe.module import ModuleChain
from repro.harness import Testbed
from repro.xdp import XDP_REDIRECT, XDP_TX, XdpAdapter
from repro.xdp.builtins import splice_asm_program
from repro.xdp.builtins.splice import SPLICE_FD


def build():
    bed = Testbed(seed=21)
    client = bed.add_flextoe_host("client")
    # The proxy's NIC carries the splice module at ingress; the manager
    # holds only its map.
    program, maps = splice_asm_program()
    adapter = XdpAdapter(program, maps)
    proxy = bed.add_flextoe_host("proxy")
    proxy.nic.datapath.ingress_modules = ModuleChain([adapter])
    backend = bed.add_flextoe_host("backend")
    bed.seed_all_arp()
    manager = SpliceManager(proxy.control_plane, maps[SPLICE_FD])
    return bed, client, proxy, backend, manager, adapter


def test_spliced_rpcs_bypass_proxy_host():
    bed, client, proxy, backend, manager, adapter = build()
    sim = bed.sim
    results = {}

    backend_ctx = backend.new_context()
    proxy_ctx = proxy.new_context()
    client_ctx = client.new_context()
    spliced = sim.event()

    def backend_app():
        listener = backend_ctx.listen(9000)
        sock = yield from backend_ctx.accept(listener)
        for _ in range(3):
            data = yield from backend_ctx.recv(sock, 4096)
            if not data:
                return
            yield from backend_ctx.send(sock, data[::-1])

    def proxy_app():
        listener = proxy_ctx.listen(8080)
        sock_a = yield from proxy_ctx.accept(listener)
        sock_b = yield from proxy_ctx.connect(backend.ip, 9000)
        # Both legs quiescent: hand the pair to the NIC.
        manager.splice(sock_a.conn_index, sock_b.conn_index)
        results["spliced_at"] = sim.now
        spliced.succeed()

    def client_app():
        sock = yield from client_ctx.connect(proxy.ip, 8080)
        yield spliced
        for i in range(3):
            message = ("request-%d" % i).encode()
            yield from client_ctx.send(sock, message)
            reply = yield from client_ctx.recv(sock, 4096)
            results.setdefault("replies", []).append(reply)
        results["done"] = True

    sim.process(backend_app(), name="backend")
    sim.process(proxy_app(), name="proxy")
    sim.process(client_app(), name="client")
    sim.run(until=500_000_000)

    assert results.get("done"), "spliced exchange did not complete"
    assert results["replies"] == [b"0-tseuqer", b"1-tseuqer", b"2-tseuqer"]
    # The NIC did the forwarding: segments were spliced...
    assert adapter.results[XDP_TX] >= 6
    # ...and the proxy host saw no data-path traffic after the splice:
    # its connection table is empty and no contexts got notifications
    # after the splice instant.
    assert len(proxy.nic.datapath.conn_table) == 0
    late = [
        n.created_at
        for pair in proxy.nic.datapath.contexts.values()
        for n in pair.inbound
    ]
    assert all(t <= results["spliced_at"] for t in late)
    assert manager.spliced_pairs == 1


def test_fin_through_splice_cleans_up():
    bed, client, proxy, backend, manager, adapter = build()
    sim = bed.sim
    results = {}
    backend_ctx = backend.new_context()
    proxy_ctx = proxy.new_context()
    client_ctx = client.new_context()
    spliced = sim.event()

    def backend_app():
        listener = backend_ctx.listen(9000)
        sock = yield from backend_ctx.accept(listener)
        data = yield from backend_ctx.recv(sock, 4096)
        yield from backend_ctx.send(sock, data)
        eof = yield from backend_ctx.recv(sock, 4096)
        results["backend_eof"] = eof == b""

    def proxy_app():
        listener = proxy_ctx.listen(8080)
        sock_a = yield from proxy_ctx.accept(listener)
        sock_b = yield from proxy_ctx.connect(backend.ip, 9000)
        manager.splice(sock_a.conn_index, sock_b.conn_index)
        spliced.succeed()

    def client_app():
        sock = yield from client_ctx.connect(proxy.ip, 8080)
        yield spliced
        yield from client_ctx.send(sock, b"one-shot")
        results["reply"] = yield from client_ctx.recv(sock, 4096)
        yield from client_ctx.close(sock)

    sim.process(backend_app(), name="backend")
    sim.process(proxy_app(), name="proxy")
    sim.process(client_app(), name="client")
    sim.run(until=500_000_000)

    assert results.get("reply") == b"one-shot"
    # The client's FIN carried a control flag: the module removed the
    # entry and redirected it to the proxy's control plane; the manager
    # garbage-collected the pair.
    assert adapter.results[XDP_REDIRECT] >= 1
    assert manager.spliced_pairs == 0


def test_a_spliced_pair_stays_withdrawn_across_a_nic_crash():
    # Splicing withdraws both connections through the control plane's one
    # teardown, shadow included: a crash must not re-offload them, and the
    # connection that re-lets one of their indices recovers as itself.
    bed, client, proxy, backend, manager, adapter = build()
    sim = bed.sim
    seen = {}
    backend_ctx = backend.new_context()
    proxy_ctx = proxy.new_context()
    client_ctx = client.new_context()

    def backend_app():
        yield from backend_ctx.accept(backend_ctx.listen(9000))

    def proxy_app():
        listener = proxy_ctx.listen(8080)
        sock_a = yield from proxy_ctx.accept(listener)
        sock_b = yield from proxy_ctx.connect(backend.ip, 9000)
        manager.splice(sock_a.conn_index, sock_b.conn_index)
        seen["spliced"] = {sock_a.conn_index, sock_b.conn_index}
        sock_c = yield from proxy_ctx.accept(listener)
        seen["later"] = sock_c.conn_index, sock_c.four_tuple

    def client_app():
        yield from client_ctx.connect(proxy.ip, 8080)
        while "spliced" not in seen:
            yield sim.timeout(10_000)
        yield from client_ctx.connect(proxy.ip, 8080)

    sim.process(backend_app(), name="backend")
    sim.process(proxy_app(), name="proxy")
    sim.process(client_app(), name="client")
    sim.run(until=50_000_000)
    later, later_tuple = seen["later"]
    assert later in seen["spliced"]  # the index was re-let
    recovery = proxy.control_plane.recovery
    proxy.nic.crash()
    sim.run(until=sim.now + 5_000_000)
    assert recovery.recoveries == 1 and recovery.reoffloaded_connections == 1
    assert proxy.nic.connection(later).four_tuple == later_tuple
    assert [index for index, _slot in recovery.shadows.items()] == [later]
    for index in seen["spliced"] - {later}:
        assert proxy.nic.connection(index) is None and recovery.shadows.get(index) is None
    assert len(proxy.nic.datapath.conn_table) == 1


def test_splice_requires_offloaded_connections():
    bed, client, proxy, backend, manager, adapter = build()
    with pytest.raises(SpliceError):
        manager.splice(123, 456)
