"""Overload-safe control plane: backlog bound, embryonic limit with
SYN-cookie fallback, the half-open reaper, and the RFC 5961
challenge-ACK rate limit under an RST storm."""

import pytest

from repro.apps.attackgen import Attacker
from repro.control.plane import CHALLENGE_ACK_INTERVAL_NS, CHALLENGE_ACK_LIMIT, ControlPlaneConfig
from repro.harness import Testbed


def build(seed=11, cp_kwargs=None):
    bed = Testbed(seed=seed)
    server = bed.add_flextoe_host("server", cp_kwargs=cp_kwargs)
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    return bed, server, client


def attacker_from_testbed(bed, server, seed=5):
    """An Attacker wired to a fresh raw switch station."""
    from repro.proto import str_to_ip, str_to_mac

    station = bed.topology.attach(
        "attacker", mac=str_to_mac("02:00:00:00:00:99"), ip=str_to_ip("10.0.200.9")
    )
    return Attacker(bed.sim, station, server.ip, server.mac, 7000, seed=seed)


def test_backlog_bounds_syn_admission():
    # backlog=2 and no acceptor: the third and later SYNs must be
    # dropped with the counter incremented, not queued.
    bed, server, client = build()
    ctx = server.new_context()
    listener = ctx.listen(7000, backlog=2)

    clients = [bed.add_flextoe_host("c%d" % i) for i in range(4)]
    bed.seed_all_arp()
    outcomes = []

    def connector(host):
        cctx = host.new_context()
        try:
            yield from cctx.connect(server.ip, 7000)
            outcomes.append("ok")
        except Exception:
            outcomes.append("refused")

    for host in clients:
        bed.sim.process(connector(host), name="conn")
    bed.sim.run(until=5_000_000)
    assert server.control_plane.syn_dropped > 0
    assert listener.syn_dropped == server.control_plane.syn_dropped
    # The accept queue itself never grew past the bound.
    assert len(listener.ready) <= 2


def test_embryonic_limit_triggers_syn_cookies():
    # Defense on with a tiny embryonic budget: floods of bare SYNs must
    # stop allocating pending state and switch to stateless cookies.
    bed, server, _ = build(
        cp_kwargs={
            "config": ControlPlaneConfig(
                syn_defense_enabled=True,
                embryonic_limit=4,
                half_open_timeout_ns=50_000_000,
            )
        }
    )
    ctx = server.new_context()
    ctx.listen(7000, backlog=256)
    attacker = attacker_from_testbed(bed, server)
    bed.sim.process(attacker.syn_flood(32, 1_000, src_pool=32), name="flood")
    bed.sim.run(until=10_000_000)
    plane = server.control_plane
    assert plane.embryonic <= 4
    assert plane.cookies_sent > 0
    # No data-path state was allocated for cookie'd SYNs.
    assert len(plane.directory) == 0


def test_cookie_completion_establishes():
    # A benign client arriving while the embryonic budget is exhausted
    # gets a cookie SYN-ACK, and its handshake ACK must validate the
    # cookie and establish end to end.
    bed, server, client = build(
        cp_kwargs={
            "config": ControlPlaneConfig(
                syn_defense_enabled=True,
                embryonic_limit=1,
                half_open_timeout_ns=50_000_000,
            )
        }
    )
    sctx = server.new_context()
    listener = sctx.listen(7000, backlog=64)
    attacker = attacker_from_testbed(bed, server)
    # Two embryonic holders occupy the budget first.
    bed.sim.process(attacker.syn_flood(4, 500, src_pool=4), name="flood")
    results = {}

    def server_app():
        sock = yield from sctx.accept(listener)
        data = yield from sctx.recv(sock, 1024)
        yield from sctx.send(sock, data)

    def client_app():
        yield bed.sim.timeout(100_000)  # let the flood spend the budget
        cctx = client.new_context()
        sock = yield from cctx.connect(server.ip, 7000)
        yield from cctx.send(sock, b"ping")
        results["reply"] = yield from cctx.recv(sock, 1024)

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=50_000_000)
    plane = server.control_plane
    assert plane.cookies_sent > 0
    assert plane.cookies_validated > 0
    assert results.get("reply") == b"ping"


def test_half_open_reaper_frees_embryonic_slots():
    bed, server, _ = build(
        cp_kwargs={
            "config": ControlPlaneConfig(
                syn_defense_enabled=True,
                embryonic_limit=64,
                half_open_timeout_ns=200_000,
            )
        }
    )
    ctx = server.new_context()
    ctx.listen(7000, backlog=256)
    attacker = attacker_from_testbed(bed, server)
    bed.sim.process(attacker.syn_flood(16, 1_000, src_pool=16), name="flood")
    bed.sim.run(until=20_000_000)
    plane = server.control_plane
    assert plane.embryonic_reaped >= 16
    assert plane.embryonic == 0
    assert len(plane.pending) == 0


def test_rst_storm_challenge_acks_are_rate_limited():
    # Blind in-window-ish RSTs against an established flow draw
    # challenge ACKs (RFC 5961 §3.2) — but at most CHALLENGE_ACK_LIMIT
    # per interval, pinned by the challenge_acks counter.
    bed, server, client = build()
    sctx = server.new_context()
    listener = sctx.listen(7000)
    held = {}

    def server_app():
        sock = yield from sctx.accept(listener)
        held["sock"] = sock
        data = yield from sctx.recv(sock, 1024)
        yield from sctx.send(sock, data)

    cctx = client.new_context()

    def client_app():
        sock = yield from cctx.connect(server.ip, 7000)
        yield from cctx.send(sock, b"ping")
        yield from cctx.recv(sock, 1024)
        held["client_port"] = sock.four_tuple[2]

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=5_000_000)
    assert "client_port" in held

    attacker = attacker_from_testbed(bed, server)
    victims = [(server.ip, client.ip, 7000, held["client_port"])]
    # Aim the spray just past the victim's rcv_nxt: in-window but never
    # the exact match, the case RFC 5961 answers with a challenge ACK.
    entry = next(iter(server.control_plane.directory))
    bed.sim.process(
        attacker.rst_storm(
            victims, 40, 1_000, mode="rst", seq_base=entry.record.proto.ack
        ),
        name="storm",
    )
    bed.sim.run(until=bed.sim.now + 5_000_000)
    plane = server.control_plane
    # The storm drew challenges, but never more than the per-window cap
    # (the whole storm, 40 us, fits inside one rate-limit window).
    assert CHALLENGE_ACK_INTERVAL_NS > 40 * 1_000
    assert 0 < plane.challenge_acks <= CHALLENGE_ACK_LIMIT
    assert plane.challenge_acks_limited > 0
    # The victim flow survived: blind RSTs did not tear it down.
    assert len(plane.directory) > 0


def test_counters_in_snapshot():
    from repro.faults.invariants import counters_snapshot

    bed, server, _ = build(
        cp_kwargs={
            "config": ControlPlaneConfig(
                syn_defense_enabled=True,
                embryonic_limit=2,
                half_open_timeout_ns=200_000,
            )
        }
    )
    ctx = server.new_context()
    ctx.listen(7000, backlog=4)
    attacker = attacker_from_testbed(bed, server)
    bed.sim.process(attacker.syn_flood(24, 500, src_pool=24), name="flood")
    bed.sim.run(until=20_000_000)
    snap = counters_snapshot(bed)["server"]
    for key in (
        "syn_dropped",
        "cookies_sent",
        "cookies_validated",
        "embryonic_reaped",
        "challenge_acks",
    ):
        assert key in snap, key
    assert snap["cookies_sent"] == server.control_plane.cookies_sent
    assert snap["embryonic_reaped"] == server.control_plane.embryonic_reaped
