"""Control-plane behavior: ARP, handshake robustness, RTO, policy."""

import pytest

from repro.control import PolicyConfig
from repro.harness import Testbed
from repro.libtoe.errors import ConnectRefusedError
from repro.net import LossInjector


def build(seed=9, server_kwargs=None, loss=None):
    bed = Testbed(seed=seed)
    if loss is not None:
        bed.switch.loss = LossInjector(bed.rng.stream("loss"), probability=loss, protect_control=False)
    server = bed.add_flextoe_host("server", cp_kwargs=server_kwargs)
    client = bed.add_flextoe_host("client")
    return bed, server, client


def run_echo_once(bed, server, client, port=7000):
    results = {}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(port)
        sock = yield from server_ctx.accept(listener)
        data = yield from server_ctx.recv(sock, 1024)
        yield from server_ctx.send(sock, data)

    def client_app():
        sock = yield from client_ctx.connect(server.ip, port)
        yield from client_ctx.send(sock, b"ping")
        results["reply"] = yield from client_ctx.recv(sock, 1024)

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=200_000_000)
    return results


def test_dynamic_arp_resolution():
    # No seed_all_arp: the client must ARP for the server's MAC.
    bed, server, client = build()
    results = run_echo_once(bed, server, client)
    assert results.get("reply") == b"ping"
    assert server.ip in client.control_plane.arp_table


def test_connect_to_closed_port_is_refused():
    bed, server, client = build()
    bed.seed_all_arp()
    outcome = {}

    def client_app():
        ctx = client.new_context()
        try:
            yield from ctx.connect(server.ip, 9999)
        except ConnectRefusedError:
            outcome["refused"] = True

    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=100_000_000)
    assert outcome.get("refused")


def test_handshake_survives_syn_loss():
    # 30% loss without control-segment protection: SYN retransmission
    # must still establish the connection.
    bed, server, client = build(loss=0.3)
    bed.seed_all_arp()
    results = run_echo_once(bed, server, client)
    assert results.get("reply") == b"ping"
    assert (
        client.control_plane.syn_retransmits + server.control_plane.syn_retransmits >= 0
    )


def test_rto_retransmission_recovers_lost_data():
    bed, server, client = build()
    bed.seed_all_arp()
    # Establish cleanly, then turn on heavy loss for the data phase.
    results = {}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        got = b""
        while len(got) < 4000:
            chunk = yield from server_ctx.recv(sock, 8192)
            if not chunk:
                break
            got += chunk
        results["got"] = got

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        bed.switch.loss = LossInjector(bed.rng.stream("late-loss"), probability=0.25)
        yield from client_ctx.send(sock, b"z" * 4000)

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=400_000_000)
    assert results.get("got") == b"z" * 4000


def test_connection_limit_policy():
    policy = PolicyConfig(max_connections_per_app=2)
    bed, server, client = build(server_kwargs={"policy": policy})
    bed.seed_all_arp()
    outcome = {"ok": 0, "refused": 0}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        while True:
            yield from server_ctx.accept(listener)

    def client_app():
        for _ in range(4):
            try:
                yield from client_ctx.connect(server.ip, 7000)
                outcome["ok"] += 1
            except ConnectRefusedError:
                outcome["refused"] += 1

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=300_000_000)
    assert outcome["ok"] == 2
    assert outcome["refused"] == 2


def test_port_partitioning():
    policy = PolicyConfig(port_ranges={"appA": (7000, 7099)})
    assert policy.port_allowed("appA", 7050)
    assert not policy.port_allowed("appB", 7050)
    assert policy.port_allowed("appB", 8000)


def test_cc_loop_programs_scheduler_rates():
    bed, server, client = build()
    bed.seed_all_arp()
    run_echo_once(bed, server, client)
    # The established connection got a scheduler entry at setup and the
    # CC loop then raised its rate (slow start, no congestion): the
    # programmed pacing interval shrinks below the initial one.
    from repro.control.cc import Dctcp
    from repro.flextoe.scheduler import rate_to_interval_q8

    sched = server.nic.scheduler
    entries = sched._flows
    assert entries  # at least the server-side connection
    initial = rate_to_interval_q8(Dctcp().init_rate_bps // 8)
    for entry in entries.values():
        assert entry.interval_q8 < initial


def test_teardown_removes_connection_state():
    bed, server, client = build()
    bed.seed_all_arp()
    server_ctx = server.new_context()
    client_ctx = client.new_context()
    done = {}

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        while (yield from server_ctx.recv(sock, 1024)) != b"":
            pass
        yield from server_ctx.close(sock)

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.send(sock, b"bye")
        yield from client_ctx.close(sock)
        done["closed"] = True

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=100_000_000)
    assert done.get("closed")
    # After the linger, both directories are empty.
    assert len(client.control_plane.directory) == 0
    assert len(client.nic.datapath.conn_table) == 0


@pytest.mark.parametrize("syn_offset_ns", [-2400, -2000, -1600])
def test_passive_close_just_before_a_tick_keeps_its_fin(syn_offset_ns):
    # Passive closer: the peer's FIN has arrived, close() posts HC_FIN
    # ~500 ns before a timer tick, and the next SYN lands around that
    # tick. The tick must not take "FIN not consumed by the NIC yet" for
    # "FIN sent and ACKed": that removed the connection, and the stale
    # HC_FIN then closed whichever connection reused its index.
    from repro.control.plane import LINGER_NS, TIMER_TICK_NS
    from repro.libtoe.api import COST_SEND

    bed, server, client = build()
    bed.seed_all_arp()
    sim = bed.sim
    server_ctx = server.new_context()
    seen = {"later_indices": []}

    def server_app():
        listener = server_ctx.listen(7000)
        first = yield from server_ctx.accept(listener)
        seen["first_index"] = first.conn_index
        while (yield from server_ctx.recv(first, 1024)) != b"":
            pass
        tick = (sim.now // TIMER_TICK_NS + 2) * TIMER_TICK_NS
        seen["tick"] = tick
        yield sim.timeout(tick - 500 - server_ctx.core.clock.cycles_to_ns(COST_SEND) - sim.now)
        yield from server_ctx.close(first)
        assert sim.now == tick - 500
        while True:
            sock = yield from server_ctx.accept(listener)
            seen["later_indices"].append(sock.conn_index)
            yield from server_ctx.send(sock, (yield from server_ctx.recv(sock, 1024)))

    def first_client(ctx):
        sock = yield from ctx.connect(server.ip, 7000)
        yield from ctx.send(sock, b"bye")
        yield from ctx.close(sock)
        seen["first_eof"] = yield from ctx.recv(sock, 1024)

    def later_client(ctx, key, start_ns):
        yield sim.timeout(start_ns - sim.now)
        sock = yield from ctx.connect(server.ip, 7000)
        yield sim.timeout(20_000)  # room for a stray FIN to land first
        yield from ctx.send(sock, b"hello")
        seen[key] = yield from ctx.recv(sock, 1024)
        seen[key + "_fin"] = sock.peer_fin

    sim.process(server_app(), name="server")
    sim.process(first_client(client.new_context()), name="first")
    sim.run(until=40_000)
    tick = seen["tick"]
    sim.process(later_client(client.new_context(), "second", tick + syn_offset_ns), name="second")
    sim.process(later_client(client.new_context(), "third", tick + 3 * TIMER_TICK_NS), name="third")
    sim.run(until=tick + 2 * TIMER_TICK_NS)
    # The closer's FIN went out and it reached `done` on a tick, long
    # before the linger would have expired.
    assert seen.get("first_eof") == b""
    assert 2 * TIMER_TICK_NS < LINGER_NS
    assert seen["first_index"] not in server.control_plane.directory.entries
    sim.run(until=tick + 6 * TIMER_TICK_NS)
    assert (seen.get("second"), seen.get("second_fin")) == (b"hello", False)
    assert (seen.get("third"), seen.get("third_fin")) == (b"hello", False)
    assert seen["later_indices"][1] == seen["first_index"]  # the index is reused
