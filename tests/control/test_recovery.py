"""Failure-path control-plane behavior: RTO backoff/abort, RST teardown,
typed handshake timeouts (ISSUE 4 satellites)."""

import pytest

from repro.control import ControlPlaneConfig
from repro.control.recovery import WATCHDOG_INTERVAL_NS, WATCHDOG_MISS_THRESHOLD
from repro.flextoe.datapath import HEARTBEAT_INTERVAL_NS
from repro.harness import Testbed
from repro.libtoe.errors import (
    ConnectRefusedError,
    ConnectionTimeoutError,
    HandshakeTimeoutError,
    PeerResetError,
)
from repro.proto import FLAG_RST, make_tcp_frame


def build(seed=9, server_kwargs=None, client_kwargs=None):
    bed = Testbed(seed=seed)
    server = bed.add_flextoe_host("server", cp_kwargs=server_kwargs)
    client = bed.add_flextoe_host("client", cp_kwargs=client_kwargs)
    bed.seed_all_arp()
    return bed, server, client


def establish_and_ping(bed, server, client, port=7000):
    """Establish one connection and complete a clean ping-pong, so the
    failure under test starts from steady state."""
    state = {"server_sock": None, "client_sock": None, "ready": False}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(port)
        sock = yield from server_ctx.accept(listener)
        state["server_sock"] = (server_ctx, sock)
        data = yield from server_ctx.recv(sock, 1024)
        yield from server_ctx.send(sock, data)

    def client_app():
        sock = yield from client_ctx.connect(server.ip, port)
        state["client_sock"] = (client_ctx, sock)
        yield from client_ctx.send(sock, b"ping")
        reply = yield from client_ctx.recv(sock, 1024)
        state["ready"] = reply == b"ping"

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=5_000_000)
    assert state["ready"]
    return state


def test_data_rto_backoff_aborts_with_typed_error():
    """A black-holed connection retries with exponential backoff, then
    aborts: RST to the peer, state removed, ConnectionTimeoutError to
    the app."""
    max_retries = 4
    bed, server, client = build(
        client_kwargs={"config": ControlPlaneConfig(max_data_retries=max_retries)}
    )
    state = establish_and_ping(bed, server, client)
    ctx, sock = state["client_sock"]
    outcome = {}

    # Take the link down: every retransmission disappears.
    client.station.port.link.set_up(False)

    def doomed_sender():
        yield from ctx.send(sock, b"x" * 4000)
        try:
            yield from ctx.recv(sock, 1024)
        except ConnectionTimeoutError:
            outcome["error"] = "timeout"

    bed.sim.process(doomed_sender(), name="doomed")
    bed.sim.run(until=400_000_000)

    plane = client.control_plane
    assert outcome.get("error") == "timeout"
    assert plane.aborts == 1
    assert plane.retransmits_posted == max_retries
    assert len(plane.directory) == 0
    assert sock.error is not None


def test_backoff_doubles_between_attempts():
    """Retransmission intervals grow geometrically up to rto_max_ns."""
    config = ControlPlaneConfig(max_data_retries=4, rto_max_ns=100_000_000)
    bed, server, client = build(client_kwargs={"config": config})
    state = establish_and_ping(bed, server, client)
    ctx, sock = state["client_sock"]
    client.station.port.link.set_up(False)

    entry = next(iter(client.control_plane.directory))
    multipliers = []
    original_post = client.nic.post_hc

    def spy_post(context_id, descriptor):
        if descriptor.kind == "retransmit":
            multipliers.append(entry.rto_multiplier)
        return original_post(context_id, descriptor)

    client.nic.post_hc = spy_post

    def doomed_sender():
        yield from ctx.send(sock, b"x" * 4000)
        try:
            yield from ctx.recv(sock, 1024)
        except ConnectionTimeoutError:
            pass

    bed.sim.process(doomed_sender(), name="doomed")
    bed.sim.run(until=400_000_000)
    assert multipliers == [2, 4, 8, 16]


def test_backoff_resets_after_progress():
    """Loss-driven RTOs must not leave a lingering multiplier once the
    stream resumes."""
    from repro.net import LossInjector

    bed, server, client = build()
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
    for entry in client.control_plane.directory:
        assert entry.rto_multiplier == 1
        assert entry.retry_attempts == 0


def make_peer_rst(server, client, four_tuple, seq):
    """An RST as the server's stack would send it toward the client."""
    local_ip, remote_ip, local_port, remote_port = four_tuple
    return make_tcp_frame(
        server.mac,
        client.mac,
        remote_ip,
        local_ip,
        remote_port,
        local_port,
        seq=seq,
        flags=FLAG_RST,
    )


def test_established_rst_tears_down_connection():
    bed, server, client = build()
    state = establish_and_ping(bed, server, client)
    ctx, sock = state["client_sock"]
    plane = client.control_plane
    entry = next(iter(plane.directory))
    outcome = {}

    def victim():
        try:
            yield from ctx.recv(sock, 1024)
        except PeerResetError:
            outcome["error"] = "reset"

    def injector():
        yield bed.sim.timeout(1_000_000)
        rst = make_peer_rst(server, client, entry.record.four_tuple, entry.record.proto.ack)
        plane.handle_frame(rst)

    bed.sim.process(victim(), name="victim")
    bed.sim.process(injector(), name="injector")
    bed.sim.run(until=50_000_000)

    assert outcome.get("error") == "reset"
    assert plane.resets_received == 1
    assert len(plane.directory) == 0
    assert sock.conn_index not in ctx.sockets  # withdrawn: the socket left its context
    assert plane.directory.lookup(entry.record.four_tuple) is None


def test_out_of_window_rst_is_ignored():
    """Blind-RST hardening: a reset whose sequence falls outside the
    receive window must not kill the connection."""
    bed, server, client = build()
    state = establish_and_ping(bed, server, client)
    plane = client.control_plane
    entry = next(iter(plane.directory))
    proto = entry.record.proto
    bad_seq = (proto.ack + proto.rx_avail + 5_000) & 0xFFFFFFFF
    rst = make_peer_rst(server, client, entry.record.four_tuple, bad_seq)
    plane.handle_frame(rst)
    bed.sim.run(until=bed.sim.now + 1_000_000)
    assert plane.resets_received == 0
    assert len(plane.directory) == 1


def test_recovery_at_scale_reoffloads_every_shadow():
    """NIC crash/reboot with 10k slab-backed quiescent connections: the
    shadow slab survives the crash intact, and the watchdog-driven
    recovery re-offloads every shadow — directory-tracked actives and
    adopt-installed bulk connections alike — with correct state."""
    import gc

    from repro.control.recovery import SHADOW_SLAB

    n_bulk = 10_000
    bed, server, client = build(
        server_kwargs={"config": ControlPlaneConfig(snapshot_interval_ns=0)}
    )
    establish_and_ping(bed, server, client)

    recovery = server.control_plane.enable_recovery()
    server.nic.register_context(500, capacity=4)
    region = server.machine.memory.alloc(4096)
    gc.collect()
    shadow_live_before = SHADOW_SLAB.stats()["live"]
    adopted = {}
    for i in range(n_bulk):
        four = (server.ip, (11 << 24) + i, 9, 40000)
        index = recovery.adopt_offloaded(
            four_tuple=four,
            peer_mac=0x020000000099,
            local_mac=server.mac,
            iss=1000 + i,
            irs=2000 + i,
            context_id=500,
            opaque=None,
            rx_buffer=(region, 0, 2048),
            tx_buffer=(region, 2048, 2048),
        )
        assert server.nic.datapath.lookup_engine.lookup(four)[:2] == (True, index)
        adopted[index] = four
    gc.collect()
    assert SHADOW_SLAB.stats()["live"] - shadow_live_before == n_bulk
    assert len(recovery.shadows) == n_bulk + 1  # bulk + the active pair

    sample = sorted(adopted)[:: n_bulk // 4][:4]
    def identity(shadow):
        return (shadow.four_tuple, shadow.snd_iss, shadow.rcv_irs, shadow.context_id, shadow.peer_mac)

    expected = {index: identity(recovery.shadows.get(index)) for index in sample}

    server.nic.crash()
    # The shadow slab is host memory: a dead data path cannot touch it.
    assert len(recovery.shadows) == n_bulk + 1
    for index in sample:
        assert identity(recovery.shadows.get(index)) == expected[index]

    bed.sim.run(until=bed.sim.now + 50_000_000)

    assert recovery.watchdog_fired >= 1
    assert recovery.recoveries >= 1
    assert server.nic.reboots == 1
    assert recovery.reoffloaded_connections == n_bulk + 1
    for index, four in ((i, adopted[i]) for i in sample):
        record = server.nic.connection(index)
        assert record is not None
        assert record.four_tuple == four
        # No row holds the host's addresses: the rebooted data path has
        # them from the NIC, and sends from them.
        assert (record.local_mac, record.local_ip) == (server.mac, server.ip)
        frame = server.nic.datapath.make_segment(record)
        assert (frame.eth.src, frame.ip.src, frame.eth.dst) == (server.mac, server.ip, 0x020000000099)
        found, looked_up, _ = server.nic.datapath.lookup_engine.lookup(four)
        assert found and looked_up == index
        # Quiescent connections re-offload at their shadow's sequence
        # state: nothing sent, nothing received beyond the handshake.
        assert record.proto.seq == recovery.shadows.get(index).snd_una
        assert record.proto.ack == recovery.shadows.get(index).rcv_nxt
    # The NIC-side table was rebuilt, not leaked: one record per shadow.
    assert len(server.nic.datapath.conn_table) == n_bulk + 1


def test_an_adopt_is_refused_an_identity_that_is_not_the_hosts():
    """The host's MAC and IP are the NIC's and the manager's, not a row's:
    an adopt naming another MAC, or another local IP, installs nothing."""
    bed, server, client = build()
    recovery = server.control_plane.recovery
    region = server.machine.memory.alloc(4096)
    buffers = ((region, 0, 2048), (region, 2048, 2048))
    with pytest.raises(ValueError, match="not this host's MAC"):
        recovery.adopt_offloaded((server.ip, 11 << 24, 9, 40000), client.mac, client.mac, 1, 1, 500, None, *buffers)
    with pytest.raises(ValueError, match="not this NIC's address"):
        recovery.adopt_offloaded((client.ip, 11 << 24, 9, 40000), client.mac, server.mac, 1, 1, 500, None, *buffers)
    assert len(recovery.shadows) == 0 and len(server.nic.datapath.conn_table) == 0


def test_state_snapshots_make_no_object_of_a_quiescent_connection():
    """The periodic NIC->host state DMA reads the connection rows and
    writes the shadow rows: 1 000 adopted connections stay slab rows
    through two snapshots, and every shadow still gets its hints."""
    import gc

    from repro.control.recovery import ConnShadow
    from repro.flextoe.state import ConnectionRecord

    bed, server, client = build()
    interval = server.control_plane.config.snapshot_interval_ns
    assert interval  # the default config snapshots
    recovery = server.control_plane.recovery
    server.nic.register_context(500, capacity=4)
    region = server.machine.memory.alloc(4096)
    adopted = [
        recovery.adopt_offloaded(
            (server.ip, (11 << 24) + i, 9, 40000), client.mac, server.mac, 1, 1, 500, None,
            (region, 0, 2048), (region, 2048, 2048),
        )
        for i in range(1000)
    ]
    bed.sim.run(until=bed.sim.now + 2 * interval + 1)
    records = {server.nic.datapath.conn_table.slot(index) for index in adopted}
    shadows = {recovery.shadows.slot(index) for index in adopted}
    gc.collect()
    # A record or shadow made of one of these rows owns its slot.
    made = [
        obj for obj in gc.get_objects()
        if isinstance(obj, (ConnectionRecord, ConnShadow)) and obj._own
        and obj.slab_slot in (records if isinstance(obj, ConnectionRecord) else shadows)
    ]
    assert made == []
    hints = [ConnShadow.view(recovery.shadows.slot(index)).nic_snapshot for index in adopted]
    assert hints == [{"remote_win": 0xFFFF, "next_ts": 0}] * 1000


#: Crash offset past a watchdog sample -> ``last_detect_ns - crash_ns``.
#: Recorded on the board that ran one publisher process per stage group
#: (commit 366c279) and pinned here on the derived board. Offset 0 is the
#: one that moved: there the crash lands on the sample instant *and* a
#: beat instant, the old board ordered the three by heap sequence
#: (sample, beat, crash: 400_000), and the derived board counts only
#: beats strictly before an instant (300_000).
DETECT_LATENCY_NS = {
    0: 300_000,
    1: 399_999,
    25_000: 375_000,
    49_999: 350_001,
    50_000: 350_000,
    50_001: 349_999,
    99_999: 300_001,
    100_000: 300_000,
}


@pytest.mark.parametrize("offset_ns", sorted(DETECT_LATENCY_NS))
def test_watchdog_detect_latency_is_the_publisher_boards(offset_ns):
    bed, server, client = build()
    sample_ns = 10 * WATCHDOG_INTERVAL_NS
    bed.sim.run(until=sample_ns)

    def crasher():
        yield bed.sim.timeout(offset_ns)
        server.nic.crash()

    bed.sim.process(crasher(), name="crasher")
    bed.sim.run(until=sample_ns + 10 * WATCHDOG_INTERVAL_NS)
    recovery = server.control_plane.recovery
    assert recovery.watchdog_fired == 1
    latency_ns = recovery.last_detect_ns - (sample_ns + offset_ns)
    assert latency_ns == DETECT_LATENCY_NS[offset_ns]
    low = (WATCHDOG_MISS_THRESHOLD - 1) * WATCHDOG_INTERVAL_NS
    assert low < latency_ns <= low + 2 * WATCHDOG_INTERVAL_NS


def test_heartbeat_board_is_a_function_of_the_clock():
    """Live it advances with time, crashed it is frozen, rebooted it
    starts again from zero — with no process publishing anything."""
    # A slower sampler than the beat would read a live board as stuck.
    assert WATCHDOG_INTERVAL_NS >= HEARTBEAT_INTERVAL_NS
    bed, server, client = build(
        server_kwargs={"config": ControlPlaneConfig(recovery_enabled=False)}
    )
    nic = server.nic

    def groups():
        return {
            (stage_kind, slot)
            for stage_kind, fpcs in nic.datapath.stage_fpcs.items()
            for slot in range(len(fpcs))
        }

    bed.sim.run(until=1_000_000)
    before = nic.read_heartbeats()
    assert set(before) == groups()
    bed.sim.run(until=bed.sim.now + WATCHDOG_INTERVAL_NS)
    assert all(nic.read_heartbeats()[key] > before[key] for key in before)

    nic.crash()
    frozen = nic.read_heartbeats()
    bed.sim.run(until=bed.sim.now + 1_000_000)
    assert nic.read_heartbeats() == frozen

    nic.reboot()
    assert set(nic.read_heartbeats()) == groups()
    assert set(nic.read_heartbeats().values()) == {0}
    bed.sim.run(until=bed.sim.now + WATCHDOG_INTERVAL_NS)
    assert 0 < min(nic.read_heartbeats().values()) < min(frozen.values())


def test_handshake_timeout_is_typed_and_configurable():
    """An unanswered SYN gives up after max_syn_retries attempts with a
    HandshakeTimeoutError (a ConnectRefusedError, so existing callers
    keep working)."""
    max_retries = 3
    bed, server, client = build(
        client_kwargs={"config": ControlPlaneConfig(max_syn_retries=max_retries)}
    )
    client.station.port.link.set_up(False)
    ctx = client.new_context()
    outcome = {}

    def client_app():
        try:
            yield from ctx.connect(server.ip, 7000)
        except HandshakeTimeoutError:
            outcome["error"] = "handshake-timeout"
        except ConnectRefusedError:
            outcome["error"] = "refused"

    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=200_000_000)
    assert outcome.get("error") == "handshake-timeout"
    assert client.control_plane.syn_retransmits == max_retries - 1
    assert issubclass(HandshakeTimeoutError, ConnectRefusedError)
