"""Control-plane behavior: ARP, handshake robustness, RTO, admission."""

import pytest

from repro.control import ControlPlaneConfig
from repro.harness import Testbed
from repro.libtoe.errors import ConnectRefusedError
from repro.net import LossInjector


def build(seed=9, server_kwargs=None, loss=None, client_kwargs=None):
    bed = Testbed(seed=seed)
    if loss is not None:
        bed.switch.faults = LossInjector(bed.rng.stream("loss"), probability=loss, protect_control=False)
    server = bed.add_flextoe_host("server", cp_kwargs=server_kwargs)
    client = bed.add_flextoe_host("client", cp_kwargs=client_kwargs)
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
    assert server.ip in client.control_plane.arp.table


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
        bed.switch.faults = LossInjector(bed.rng.stream("late-loss"), probability=0.25)
        yield from client_ctx.send(sock, b"z" * 4000)

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=400_000_000)
    assert results.get("got") == b"z" * 4000


def test_connection_limit_policy():
    bed, server, client = build(server_kwargs={"config": ControlPlaneConfig(max_connections=2)})
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


# -- poll exactness (DESIGN §12) ----------------------------------------------
#
# Timers and congestion control run on demand, on the 50 us grid the
# fixed-period loops used to tick on. Every instant below was captured
# with these same scenarios at the last commit that had the loops
# (eade4b4); a poll that is skipped must have been the identity, so none
# of them may move.


def spy(obj, name, log, sim, pick=lambda *args: args):
    """Log ``(now, *pick(*args))`` for every call of ``obj.name``."""
    original = getattr(obj, name)

    def wrapper(*args):
        log.append((sim.now,) + tuple(pick(*args)))
        return original(*args)

    setattr(obj, name, wrapper)


def pair(seed=9, server_config=None, client_cp=None):
    server_kwargs = {"config": server_config} if server_config else None
    bed, server, client = build(seed, server_kwargs, client_kwargs=client_cp)
    bed.seed_all_arp()
    return bed, server, client


def echo_server(ctx, port=7000):
    listener = ctx.listen(port)
    sock = yield from ctx.accept(listener)
    while True:
        data = yield from ctx.recv(sock, 65536)
        if not data:
            return
        yield from ctx.send(sock, data)


def test_rto_fires_on_the_same_ticks_after_a_quiet_spell():
    bed, server, client = pair()
    sim = bed.sim
    posted = []
    spy(client.nic, "post_hc", posted, sim, pick=lambda _ctx, descriptor: (descriptor.kind,))
    ctx = client.new_context()

    def client_app():
        sock = yield from ctx.connect(server.ip, 7000)
        yield from ctx.send(sock, b"ping")
        yield from ctx.recv(sock, 1024)
        yield sim.timeout(700_000 - sim.now)  # quiet for more than ten ticks
        assert not client.control_plane._poll.pending
        client.station.port.link.set_up(False)  # every (re)transmission is lost
        yield from ctx.send(sock, b"x" * 1000)

    sim.process(echo_server(server.new_context()), name="server")
    sim.process(client_app(), name="client")
    sim.run(until=3_000_000)
    # First RTO, then the backed-off second one.
    assert [t for t, kind in posted if kind == "retransmit"][:2] == [1_050_000, 1_600_000]


def test_zero_window_probe_fires_on_the_same_ticks():
    bed, server, client = pair(server_config=ControlPlaneConfig(rx_buffer_size=4096))
    sim = bed.sim
    posted = []
    spy(client.nic, "post_hc", posted, sim, pick=lambda _ctx, descriptor: (descriptor.kind,))
    server_ctx, ctx = server.new_context(), client.new_context()

    def server_app():
        yield from server_ctx.accept(server_ctx.listen(7000))  # and never recv

    def client_app():
        sock = yield from ctx.connect(server.ip, 7000)
        yield sim.timeout(600_000 - sim.now)
        yield from ctx.send(sock, b"y" * 16384)

    sim.process(server_app(), name="server")
    sim.process(client_app(), name="client")
    sim.run(until=3_000_000)
    assert [t for t, kind in posted if kind == "probe"][:2] == [950_000, 1_500_000]


@pytest.mark.parametrize("server_closes, removed_at", [(True, 650_000), (False, 2_650_000)])
def test_closed_connection_is_removed_on_the_same_tick(server_closes, removed_at):
    # `done` on the first tick after the FIN exchange; without the peer's
    # FIN, on the first tick past LINGER_NS.
    bed, server, client = pair()
    sim = bed.sim
    removed = []
    spy(client.nic, "remove_connection", removed, sim)
    server_ctx, ctx = server.new_context(), client.new_context()

    def server_app():
        sock = yield from server_ctx.accept(server_ctx.listen(7000))
        while (yield from server_ctx.recv(sock, 1024)) != b"":
            pass
        if server_closes:
            yield from server_ctx.close(sock)

    def client_app():
        sock = yield from ctx.connect(server.ip, 7000)
        yield from ctx.send(sock, b"bye")
        yield sim.timeout(630_000 - sim.now)
        yield from ctx.close(sock)

    sim.process(server_app(), name="server")
    sim.process(client_app(), name="client")
    sim.run(until=5_000_000)
    assert [t for t, _index in removed] == [removed_at]
    directory = client.control_plane.directory
    assert not directory.timer_armed and not directory.cc_armed
    assert not client.control_plane._poll.pending


def rate_trace(cc=None, until=1_100_000):
    """set_flow_rate and read_cc_stats calls on the client of a bursty echo."""
    bed, server, client = pair(client_cp={"cc": cc} if cc is not None else None)
    sim = bed.sim
    rates, polls = [], []
    spy(client.nic, "set_flow_rate", rates, sim)
    spy(client.nic, "read_cc_stats", polls, sim)
    ctx = client.new_context()

    def client_app():
        sock = yield from ctx.connect(server.ip, 7000)
        for size in (64, 3000, 64, 9000, 64):
            yield from ctx.send(sock, b"r" * size)
            got = 0
            while got < size:
                got += len((yield from ctx.recv(sock, 65536)))
            yield sim.timeout(130_000)

    sim.process(echo_server(server.new_context()), name="server")
    sim.process(client_app(), name="client")
    sim.run(until=until)
    return rates, polls


def test_a_new_flows_rate_is_programmed_on_the_same_ticks():
    rates, polls = rate_trace()
    # At establishment, then slow start doubling on the first poll that
    # has feedback, then past `uncongested_bps` (0: unpaced).
    assert rates == [(3_326, 0, 1_250_000_000), (50_000, 0, 2_500_000_000), (200_000, 0, 0)]
    # DCTCP's no-feedback interval is the identity: only intervals with
    # feedback were polled (the loop polled all 22).
    assert len(polls) == 5


def test_timely_polls_every_flow_every_interval():
    from repro.control.cc import Timely

    rates, polls = rate_trace(cc=Timely(), until=1_000_000)
    # TIMELY adapts on the RTT estimate alone, so it does not declare
    # `idle_is_identity`: 20 intervals, 20 polls, and the parent's rates.
    assert [t for t, _index in polls] == list(range(50_000, 1_000_001, 50_000))
    assert rates == [(3_326, 0, 1_250_000_000)] + [
        (100_000 + 50_000 * k, 0, 1_255_000_000 + 5_000_000 * k) for k in range(19)
    ]


def test_cc_disabled_schedules_no_cc_tick():
    bed, server, client = pair(client_cp={"cc_enabled": False})
    sim = bed.sim
    polls = []
    spy(client.nic, "read_cc_stats", polls, sim)
    ctx = client.new_context()
    results = {}

    def client_app():
        sock = yield from ctx.connect(server.ip, 7000)
        yield sim.timeout(60_000 - sim.now)  # past the tick the handshake armed
        results["armed_by_the_new_flow"] = client.control_plane._poll.pending
        yield from ctx.send(sock, b"ping")
        results["reply"] = yield from ctx.recv(sock, 1024)

    sim.process(echo_server(server.new_context()), name="server")
    sim.process(client_app(), name="client")
    sim.run(until=1_000_000)
    assert results == {"armed_by_the_new_flow": False, "reply": b"ping"}
    assert polls == [] and not client.control_plane.directory.cc_armed


def test_syn_retransmission_fires_on_the_same_ticks():
    bed, server, client = pair()
    sim = bed.sim
    syns = []
    spy(client.control_plane, "_send_handshake", syns, sim, pick=lambda _pending: ())
    server.station.port.link.set_up(False)
    ctx = client.new_context()

    def client_app():
        yield sim.timeout(123_456)
        yield from ctx.connect(server.ip, 7000)

    sim.process(client_app(), name="client")
    sim.run(until=3_400_000)
    assert [t for (t,) in syns] == [124_456, 1_150_000, 2_150_000, 3_150_000]


def test_half_open_reaper_fires_on_the_same_ticks():
    from repro.apps.attackgen import Attacker
    from repro.proto import str_to_ip, str_to_mac

    config = ControlPlaneConfig(
        syn_defense_enabled=True, embryonic_limit=8, half_open_timeout_ns=400_000
    )
    bed, server, _client = pair(seed=11, server_config=config)
    sim = bed.sim
    server.new_context().listen(7000, backlog=64)
    station = bed.topology.attach(
        "attacker", mac=str_to_mac("02:00:00:00:00:99"), ip=str_to_ip("10.0.200.9")
    )
    attacker = Attacker(sim, station, server.ip, server.mac, 7000, seed=5)
    plane = server.control_plane
    reaped = []

    def watch():
        seen = 0
        while True:
            yield sim.timeout(1_000)
            if plane.embryonic_reaped != seen:
                seen = plane.embryonic_reaped
                reaped.append((sim.now, seen))

    def flood():
        yield sim.timeout(210_000)
        yield from attacker.syn_flood(3, 40_000, src_pool=3)

    sim.process(watch(), name="watch")
    sim.process(flood(), name="flood")
    sim.run(until=1_500_000)
    assert reaped == [(650_000, 1), (700_000, 3)]
    assert not plane.pending and not plane._poll.pending  # nothing left to wait for


def test_grid_poll_serves_an_arm_on_a_grid_instant_at_the_next_one():
    from repro.control.plane import GridPoll
    from repro.sim import Simulator

    sim = Simulator()
    sim.run(until=7)  # the epoch need not be zero
    ticks = []
    work = {"left": 0}

    def body():
        ticks.append(sim.now)
        work["left"] -= 1
        return work["left"] > 0

    poll = GridPoll(sim, 50, body)
    sim.run(until=1_000)
    assert ticks == [] and sim.processed_events == 0  # unarmed: no events at all

    def arm_at(when, visits):
        def fire(_event):
            work["left"] = visits
            poll.arm()
            poll.arm()  # a second arm rides the pending tick

        sim.timeout(when - sim.now).callbacks.append(fire)

    arm_at(1_020, 1)  # mid-interval: the next grid instant
    arm_at(1_207, 3)  # exactly on a grid instant (7 + 24 * 50): the one after it
    sim.run(until=2_000)
    assert ticks == [1_057, 1_257, 1_307, 1_357]
    assert not poll.pending and sim.peek() is None


def test_nothing_is_visited_while_degraded_and_armed_entries_survive_the_outage():
    bed, server, client = pair()
    sim = bed.sim
    plane = client.control_plane
    visits = []
    spy(plane, "_poll_timers", visits, sim, pick=lambda _now: ())
    ctx = client.new_context()
    seen = {}

    def client_app():
        sock = yield from ctx.connect(server.ip, 7000)
        yield from ctx.send(sock, b"ping")
        yield from ctx.recv(sock, 1024)
        yield sim.timeout(400_000 - sim.now)
        server.station.port.link.set_up(False)  # keep the next send unacknowledged
        yield from ctx.send(sock, b"x" * 1000)
        yield sim.timeout(20_000)
        seen["armed_before_crash"] = set(plane.directory.timer_armed)
        client.nic.crash()

    sim.process(echo_server(server.new_context()), name="server")
    sim.process(client_app(), name="client")
    sim.run(until=2_000_000)
    recovery = plane.recovery
    assert recovery.recoveries == 1
    detect, recovered = recovery.last_detect_ns, recovery.last_recovery_ns
    (entry,) = plane.directory
    assert seen["armed_before_crash"] == {entry}
    times = [t for (t,) in visits]
    # Ticks up to the detection, none during the outage, and the first
    # one after re-offload is the grid instant recovery completed on.
    assert [t for t in times if detect <= t < recovered] == []
    assert detect - 50_000 in times and recovered in times
    # That tick visited the entry armed before the crash: its stall clock
    # restarted there (re-offload had reset it).
    assert entry in plane.directory.timer_armed
    assert entry.record.proto.tx_sent > 0
    assert entry.last_snd_una is not None


def test_directory_order_survives_index_reuse_and_remove_disarms():
    from types import SimpleNamespace

    from repro.control.connection import ConnectionDirectory

    directory = ConnectionDirectory()
    record = lambda n: SimpleNamespace(four_tuple=("local", "peer", 7000, n))  # noqa: E731
    first = directory.add(0, record(1), None, 0)
    second = directory.add(1, record(2), None, 0)
    directory.timer_armed.update((first, second))
    directory.cc_armed.add(first)
    assert directory.remove(0) is first  # whoever removes it (teardown, splice) disarms it
    assert directory.timer_armed == {second} and not directory.cc_armed
    reused = directory.add(0, record(3), None, 0)  # index 0 again, but added last
    directory.timer_armed.add(reused)
    assert directory.in_order(directory.timer_armed) == [second, reused] == list(directory)
