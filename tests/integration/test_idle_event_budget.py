"""Idle costs (almost) nothing: the data path is work-driven (paper §3.1)
and the control plane visits *active* flows (§3.4) and samples a chip's
heartbeats only once it froze, so a quiet testbed pays only for the one
periodic process whose body is never the identity — the state-snapshot
DMA (DESIGN §11, §12) — however many connections are established on it."""

from repro.control.plane import ControlPlaneConfig
from repro.harness import Testbed

IDLE_SIM_MS = 10
#: Events per idle simulated millisecond for two FlexTOE hosts: reads 8,
#: all of it the snapshot DMA. With a publisher process per stage group
#: it read about 1 800, with fixed-period timer and congestion-control
#: loops 108, with a watchdog sampling a live chip 28; the guard keeps the
#: next periodic process from quietly bringing any of them back.
IDLE_EVENTS_PER_SIM_MS = 10


def idle_events(bed, sim_ms=IDLE_SIM_MS):
    started = bed.sim.processed_events
    bed.sim.run(until=bed.sim.now + sim_ms * 1_000_000)
    return bed.sim.processed_events - started


def test_idle_testbed_stays_within_its_event_budget():
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    bed.sim.run(until=1_000_000)  # stage threads start up and park on their rings
    assert idle_events(bed) <= IDLE_EVENTS_PER_SIM_MS * IDLE_SIM_MS
    for host in (server, client):
        names = [chain.name for chain in host.nic.datapath.chains]
        assert names and not any(name.startswith("hb-") for name in names)
        assert not host.control_plane._poll.pending  # no cp-timer, no cp-cc: nothing armed


def test_a_live_chip_costs_nothing_without_snapshots():
    config = {"config": ControlPlaneConfig(snapshot_interval_ns=0)}
    bed = Testbed(seed=1)
    hosts = [bed.add_flextoe_host(name, cp_kwargs=dict(config)) for name in ("server", "client")]
    bed.seed_all_arp()
    bed.sim.run(until=1_000_000)
    assert idle_events(bed) == 0
    assert bed.sim.peek() is None  # the watchdog sleeps on the board's freeze, no timer
    for host in hosts:
        board = host.nic.datapath.heartbeats
        assert board.frozen_at is None and not board.watcher.triggered
        assert host.control_plane.recovery.watchdog_fired == 0


def quiet_pair(n_connections):
    """Two hosts with ``n_connections`` established and gone quiet. The
    snapshot DMA is off: it moves 16 B per installed record by design,
    so it is the one idle cost that *should* scale with connections."""
    config = {"config": ControlPlaneConfig(snapshot_interval_ns=0)}
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server", cp_kwargs=config)
    client = bed.add_flextoe_host("client", cp_kwargs=dict(config))
    bed.seed_all_arp()
    server_ctx, client_ctx = server.new_context(), client.new_context()
    socks = []

    def server_app():
        listener = server_ctx.listen(7000, backlog=n_connections)
        while True:
            sock = yield from server_ctx.accept(listener)
            bed.sim.process(echo(sock), name="echo")

    def echo(sock):
        while True:
            data = yield from server_ctx.recv(sock, 1024)
            yield from server_ctx.send(sock, data)

    def client_app():
        for _ in range(n_connections):
            socks.append((yield from client_ctx.connect(server.ip, 7000)))

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=3_000_000)
    assert len(socks) == n_connections
    assert len(server.control_plane.directory) == n_connections
    return bed, server, client, client_ctx, socks


def test_quiescent_connections_cost_no_events():
    empty = idle_events(quiet_pair(0)[0])
    bed, server, client, _ctx, _socks = quiet_pair(64)
    assert idle_events(bed) == empty
    for host in (server, client):
        directory = host.control_plane.directory
        assert not directory.timer_armed and not directory.cc_armed
        assert not host.control_plane._poll.pending


def test_one_rpc_costs_no_poll_on_the_others_behalf():
    bed, server, client, ctx, socks = quiet_pair(64)
    sim = bed.sim
    ticks = {"server": [], "client": []}
    polled = {"server": [], "client": []}
    for host in (server, client):
        plane, name = host.control_plane, host.name
        body = plane._poll.body
        plane._poll.body = lambda body=body, name=name: ticks[name].append(sim.now) or body()
        read = host.nic.read_cc_stats
        host.nic.read_cc_stats = (
            lambda index, read=read, name=name: polled[name].append(index) or read(index)
        )
    active = socks[17]
    result = {}

    def rpc():
        yield sim.timeout(3_050_500 - sim.now)  # just past a grid instant
        yield from ctx.send(active, b"ping")
        result["reply"] = yield from ctx.recv(active, 1024)
        result["at"] = sim.now

    sim.process(rpc(), name="rpc")
    sim.run(until=4_000_000)
    assert result["reply"] == b"ping" and result["at"] < 3_100_000
    # One burst of activity: one tick per host — its timer visit and its
    # congestion-control poll ride the same grid event — and only the
    # active connection is visited.
    assert ticks == {"server": [3_100_000], "client": [3_100_000]}
    assert len(polled["server"]) == len(polled["client"]) == 1
    assert polled["client"] == [active.conn_index]
