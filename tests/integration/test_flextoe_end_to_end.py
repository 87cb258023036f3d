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
