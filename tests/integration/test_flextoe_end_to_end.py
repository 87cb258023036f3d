"""End-to-end FlexTOE <-> FlexTOE integration over the simulated network:
handshake, data transfer through the full NIC pipeline, teardown."""

import pytest

from repro.flextoe.config import PipelineConfig
from repro.harness import Testbed
from repro.proto import make_tcp_frame
from repro.proto.tcp import FLAG_ACK, FLAG_PSH
from tests.integration.driver import run_apps
from tests.integration.test_golden_digests import WireTap


@pytest.fixture
def bed():
    bed = Testbed(seed=1)
    bed.add_flextoe_host("server")
    bed.add_flextoe_host("client")
    bed.seed_all_arp()
    return bed


def run_pair(bed, server_proc, client_proc, until=2_000_000_000):
    sim = bed.sim
    server = bed.hosts["server"]
    client = bed.hosts["client"]
    server_ctx = server.new_context()
    client_ctx = client.new_context()
    results = {}

    apps = [
        sim.process(server_proc(server_ctx, results), name="server-app"),
        sim.process(client_proc(client_ctx, server.ip, results), name="client-app"),
    ]
    run_apps(bed, apps, deadline_ns=until)
    return results


def test_connect_and_echo_small(bed):
    def server(ctx, results):
        listener = ctx.listen(7777)
        sock = yield from ctx.accept(listener)
        data = yield from ctx.recv(sock, 4096)
        results["server_got"] = data
        yield from ctx.send(sock, data.upper())

    def client(ctx, server_ip, results):
        sock = yield from ctx.connect(server_ip, 7777)
        yield from ctx.send(sock, b"hello flextoe")
        reply = yield from ctx.recv(sock, 4096)
        results["client_got"] = reply
        results["done_at"] = ctx.sim.now

    results = run_pair(bed, server, client)
    assert results.get("server_got") == b"hello flextoe"
    assert results.get("client_got") == b"HELLO FLEXTOE"
    # Latency sanity: round trip under a millisecond of simulated time.
    assert results["done_at"] < 1_000_000


def test_run_to_completion_server_moves_data():
    # Table 3's baseline row: every stage inline on one FPC thread. The
    # post->DMA hop has no ring there, so it is easy to lose.
    bed = Testbed(seed=1)
    bed.add_flextoe_host("server", pipeline_config=PipelineConfig.baseline_run_to_completion())
    bed.add_flextoe_host("client")
    bed.seed_all_arp()

    def server(ctx, results):
        sock = yield from ctx.accept(ctx.listen(7777))
        data = yield from ctx.recv(sock, 4096)
        yield from ctx.send(sock, data.upper())

    def client(ctx, server_ip, results):
        sock = yield from ctx.connect(server_ip, 7777)
        yield from ctx.send(sock, b"one thread")
        results["client_got"] = yield from ctx.recv(sock, 4096)

    assert run_pair(bed, server, client)["client_got"] == b"ONE THREAD"


def test_large_transfer_multiple_segments(bed):
    payload = bytes(i % 251 for i in range(50_000))

    def server(ctx, results):
        listener = ctx.listen(7777)
        sock = yield from ctx.accept(listener)
        got = b""
        while len(got) < len(payload):
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                break
            got += chunk
        results["received"] = got

    def client(ctx, server_ip, results):
        sock = yield from ctx.connect(server_ip, 7777)
        yield from ctx.send(sock, payload)
        results["sent"] = len(payload)

    results = run_pair(bed, server, client, until=5_000_000_000)
    assert results.get("received") == payload


def test_bidirectional_concurrent_transfer(bed):
    blob = bytes(range(256)) * 40  # 10240 bytes each way

    def server(ctx, results):
        listener = ctx.listen(5000)
        sock = yield from ctx.accept(listener)
        send_proc = ctx.sim.process(ctx.send(sock, blob))
        got = b""
        while len(got) < len(blob):
            chunk = yield from ctx.recv(sock, 8192)
            if not chunk:
                break
            got += chunk
        yield send_proc
        results["server_rx"] = got

    def client(ctx, server_ip, results):
        sock = yield from ctx.connect(server_ip, 5000)
        send_proc = ctx.sim.process(ctx.send(sock, blob))
        got = b""
        while len(got) < len(blob):
            chunk = yield from ctx.recv(sock, 8192)
            if not chunk:
                break
            got += chunk
        yield send_proc
        results["client_rx"] = got

    results = run_pair(bed, server, client, until=5_000_000_000)
    assert results.get("server_rx") == blob
    assert results.get("client_rx") == blob


def test_fin_teardown_notifies_peer(bed):
    def server(ctx, results):
        listener = ctx.listen(6000)
        sock = yield from ctx.accept(listener)
        data = yield from ctx.recv(sock, 1024)
        results["data"] = data
        # Peer closes; next recv returns empty.
        eof = yield from ctx.recv(sock, 1024)
        results["eof"] = eof
        yield from ctx.close(sock)

    def client(ctx, server_ip, results):
        sock = yield from ctx.connect(server_ip, 6000)
        yield from ctx.send(sock, b"bye")
        yield from ctx.close(sock)
        results["closed"] = True

    results = run_pair(bed, server, client)
    assert results.get("data") == b"bye"
    assert results.get("eof") == b""
    assert results.get("closed")


def test_many_connections_same_context(bed):
    n_conns = 8

    def server(ctx, results):
        listener = ctx.listen(8000)
        results["echoed"] = 0

        def serve(sock):
            data = yield from ctx.recv(sock, 1024)
            yield from ctx.send(sock, data)
            results["echoed"] += 1

        for _ in range(n_conns):
            sock = yield from ctx.accept(listener)
            ctx.sim.process(serve(sock))

    def client(ctx, server_ip, results):
        results["ok"] = 0

        def one(i, done):
            sock = yield from ctx.connect(server_ip, 8000)
            msg = ("req-%02d" % i).encode()
            yield from ctx.send(sock, msg)
            reply = yield from ctx.recv(sock, 1024)
            assert reply == msg
            results["ok"] += 1
            done.succeed()

        events = []
        for i in range(n_conns):
            done = ctx.sim.event()
            events.append(done)
            ctx.sim.process(one(i, done))
        for event in events:
            yield event

    results = run_pair(bed, server, client, until=10_000_000_000)
    assert results.get("ok") == n_conns
    assert results.get("echoed") == n_conns


def test_stats_and_pipeline_counters(bed):
    def server(ctx, results):
        listener = ctx.listen(9000)
        sock = yield from ctx.accept(listener)
        data = yield from ctx.recv(sock, 1024)
        yield from ctx.send(sock, data)

    def client(ctx, server_ip, results):
        sock = yield from ctx.connect(server_ip, 9000)
        yield from ctx.send(sock, b"x" * 100)
        yield from ctx.recv(sock, 1024)
        results["done"] = True

    results = run_pair(bed, server, client)
    assert results.get("done")
    server_dp = bed.hosts["server"].nic.datapath
    assert server_dp.rx_frames_seen > 0
    assert sum(s.processed["rx"] for s in server_dp.protocol_stages) > 0
    assert server_dp.nbi_stage.transmitted > 0
    assert bed.hosts["server"].nic.chip.dma.ops > 0


def test_late_segment_after_churn_is_reset_not_delivered(sanitized):
    # tests/flextoe/test_stage_teardown_drop.py's isolation case on a
    # whole testbed, sanitized: connection A closes, B is let A's index,
    # then a late segment with A's four-tuple arrives off the wire at
    # exactly the sequence number B's tenant expects. One pre-stage
    # replica, so its id-cache still maps A's tuple to the shared index.
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server", pipeline_config=PipelineConfig.pipelined_single_thread())
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    accepted, a_tuple, results = [], [], {}
    b_open, injected = bed.sim.event(), bed.sim.event()

    def server_app(ctx):
        listener = ctx.listen(7777)
        for _ in range(2):
            sock = yield from ctx.accept(listener)
            accepted.append(sock)
            while True:
                data = yield from ctx.recv(sock, 4096)
                if not data:
                    break
                yield from ctx.send(sock, data.upper())
            yield from ctx.close(sock)

    def client_app(ctx):
        a = yield from ctx.connect(server.ip, 7777)
        yield from ctx.send(a, b"first")
        results["a"] = yield from ctx.recv(a, 4096)
        a_tuple.extend(a.four_tuple)
        yield from ctx.close(a)
        yield ctx.sim.timeout(1_000_000)  # both FINs acknowledged: A is gone
        b = yield from ctx.connect(server.ip, 7777)
        yield from ctx.send(b, b"second")
        results["b"] = yield from ctx.recv(b, 4096)
        b_open.succeed()
        yield injected
        yield from ctx.send(b, b"third")
        results["b_after"] = yield from ctx.recv(b, 4096)
        yield from ctx.close(b)

    apps = [
        bed.sim.process(server_app(server.new_context()), name="server-app"),
        bed.sim.process(client_app(client.new_context()), name="client-app"),
    ]
    bed.sim.run(until=b_open)
    sock_a, sock_b = accepted
    assert sock_b.conn_index == sock_a.conn_index  # the index was re-let
    tenant = server.nic.datapath.conn_table.get(sock_b.conn_index)
    expected = tenant.proto.ack
    client_ip, server_ip, a_port, server_port = a_tuple
    tap = bed.switch.faults = WireTap(bed.sim)
    client.station.port.send(make_tcp_frame(
        client.mac, server.mac, client_ip, server_ip, a_port, server_port,
        seq=expected, ack=tenant.proto.seq, flags=FLAG_ACK | FLAG_PSH, payload=b"EVIL",
    ))
    bed.sim.run(until=bed.sim.now + 100_000)
    assert tenant.proto.ack == expected  # + 4 at the parent
    # The stray went to the control plane, which answered A's port with
    # the RST any unknown tuple gets; B's stream saw none of it.
    a_frames = [line.split()[2:] for line in tap.lines if str(a_port) in line.split()[2]]
    assert [(ports, flags, length) for ports, _seq, _ack, flags, length in a_frames] == [
        ("{}>{}".format(a_port, server_port), "flags=PA", "len=4"),
        ("{}>{}".format(server_port, a_port), "flags=RA", "len=0"),
    ]
    injected.succeed()
    run_apps(bed, apps, deadline_ns=2_000_000_000)
    assert results == {"a": b"FIRST", "b": b"SECOND", "b_after": b"THIRD"}


# -- features in combination: ECN, window reopen, checksum drops ------------


def one_way_transfer(bed, payload, reader_delay_ns=0, on_chunk=None):
    """Client streams ``payload`` to a server that starts reading after
    ``reader_delay_ns``; returns what the server read. ``on_chunk(total)``
    runs after every read. Ends drained (``run_apps``)."""
    server, client = bed.hosts["server"], bed.hosts["client"]
    seen = {}

    def server_app(ctx):
        sock = yield from ctx.accept(ctx.listen(7777))
        if reader_delay_ns:
            yield ctx.sim.timeout(reader_delay_ns)
        got = b""
        while len(got) < len(payload):
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                break
            got += chunk
            if on_chunk is not None:
                on_chunk(len(got))
        seen["got"] = got

    def client_app(ctx):
        sock = yield from ctx.connect(server.ip, 7777)
        yield from ctx.send(sock, payload)

    apps = [
        bed.sim.process(server_app(server.new_context()), name="server-app"),
        bed.sim.process(client_app(client.new_context()), name="client-app"),
    ]
    run_apps(bed, apps, deadline_ns=2_000_000_000)
    return seen["got"]


def test_ce_marks_reach_the_senders_rate_through_ece_and_cnt_ecnb(sanitized):
    # switch CE mark -> receiver's ACK carries ECE -> sender's post stage
    # adds cnt_ecnb -> the sender's DCTCP loop programs a lower rate.
    from repro.net.switch import SwitchPortConfig

    payload = bytes(i % 251 for i in range(400_000))

    def run(ecn_threshold_bytes):
        bed = Testbed(seed=1)
        server = bed.add_flextoe_host("server")
        client = bed.add_flextoe_host("client")
        bed.seed_all_arp()
        bed.switch.set_port_config(
            server.station.switch_port,
            SwitchPortConfig(rate_bps=2_000_000_000, ecn_threshold_bytes=ecn_threshold_bytes),
        )
        rates, ecn_bytes = [], []
        set_rate, read_stats = client.nic.set_flow_rate, client.nic.read_cc_stats

        def spy_rate(index, bytes_per_sec):
            rates.append(bytes_per_sec or float("inf"))  # 0 programs "unpaced"
            set_rate(index, bytes_per_sec)

        def spy_stats(index):
            raw = read_stats(index)
            if raw is not None:
                ecn_bytes.append(raw[1])
            return raw

        client.nic.set_flow_rate, client.nic.read_cc_stats = spy_rate, spy_stats
        assert one_way_transfer(bed, payload) == payload
        marked = bed.switch.egress_stats(server.station.switch_port).marked_ce
        return marked, sum(ecn_bytes), rates

    marked, ecn_acked, rates = run(ecn_threshold_bytes=3000)
    clean_marked, clean_ecn_acked, clean_rates = run(ecn_threshold_bytes=None)
    assert marked > 0 and ecn_acked > 0
    assert (clean_marked, clean_ecn_acked) == (0, 0)
    # Unmarked, slow start only ever raises the rate; marked, every
    # programmed rate after the first feedback is below all of those.
    assert clean_rates == sorted(clean_rates)
    assert max(rates[1:]) < min(clean_rates)
    assert min(rates) < clean_rates[0] / 2


def test_closed_receive_window_reopens_on_the_window_update_not_a_probe(sanitized):
    from repro.control.plane import ControlPlaneConfig

    bed = Testbed(seed=1)
    bed.add_flextoe_host("server", cp_kwargs={"config": ControlPlaneConfig(rx_buffer_size=4096)})
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    tap = bed.switch.faults = WireTap(bed.sim)
    payload = bytes(i % 251 for i in range(16_384))
    resumed = {}

    def on_chunk(total):
        # More than the 4 KB buffer has arrived: the sender is moving again.
        if total > 4096 and not resumed:
            resumed["at"] = bed.sim.now
            resumed["probes"] = client.control_plane.probes_posted

    # The first zero-window probe is due ~350 us after the stall (see
    # tests/control/test_plane.py); the reader drains at 200 us.
    assert one_way_transfer(bed, payload, reader_delay_ns=200_000, on_chunk=on_chunk) == payload
    assert resumed["probes"] == 0 and client.control_plane.probes_posted == 0
    assert client.control_plane.retransmits_posted == 0
    # On the wire: silence while the window is shut, then the reader's
    # HC_RX_UPDATE produces one pure ACK and the sender's next segment
    # follows it.
    times = [(int(line.split()[0]), line) for line in tap.lines]
    quiet = [line for t, line in times if 50_000 < t < 200_000]
    after = [line for t, line in times if t >= 200_000][:2]
    assert quiet == []
    assert "7777>" in after[0] and "flags=A len=0" in after[0]
    assert ">7777" in after[1] and "len=1448" in after[1]
    assert int(after[1].split()[0]) < resumed["at"]


def test_checksum_corruption_is_dropped_by_the_pre_stage_and_recovered(sanitized):
    from repro.faults import FaultPlan
    from repro.faults.events import Corruption
    from repro.faults.invariants import counters_snapshot

    bed = Testbed(seed=3)
    bed.add_flextoe_host("server")
    bed.add_flextoe_host("client")
    bed.seed_all_arp()
    # FCS-passing flips only: the MAC lets them through, Val must not.
    corruption = Corruption(probability=0.05, fcs=False, start_ns=10_000)
    bed.install_fault_plan(FaultPlan("csum").add(corruption))
    payload = bytes(i % 251 for i in range(60_000))
    assert one_way_transfer(bed, payload) == payload
    counters = counters_snapshot(bed)
    assert counters["server"]["csum_drops"] > 0
    assert counters["server"]["csum_drops"] + counters["client"]["csum_drops"] == corruption.corrupted
    assert counters["server"]["fcs_drops"] == 0
