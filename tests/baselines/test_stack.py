"""The baseline host's socket and receive paths (``repro.baselines.stack``):
close, non-blocking calls, resets, accept without room (a reset) or
without a listener, frames the stack never sees, ephemeral ports and listen."""

import pytest

from repro.baselines.engine import SYN_RCVD, TX_BUFFER
from repro.harness import Testbed, build_host
from repro.libtoe.errors import ConnectRefusedError, ToeError
from repro.proto import make_tcp_frame
from repro.proto.ethernet import EthernetHeader
from repro.proto.ip import Ipv4Header
from repro.proto.packet import Frame
from repro.proto.tcp import FLAG_SYN

PORT = 7000


def _pair(stack="linux"):
    bed = Testbed(seed=5)
    server = build_host(bed, stack, "server")
    client = build_host(bed, stack, "client")
    bed.seed_all_arp()
    return bed, server, client


def _run(bed, *apps, until=50_000_000):
    for app in apps:
        bed.sim.process(app)
    bed.sim.run(until=until)


def _syn(client, server):
    return make_tcp_frame(client.mac, server.mac, client.ip, server.ip, 50_000, PORT, seq=1, flags=FLAG_SYN)


@pytest.mark.parametrize("stack", ["linux", "tas", "chelsio"])
def test_a_close_reaches_the_peer_as_end_of_stream(stack):
    bed, server, client = _pair(stack)
    server_ctx, client_ctx = server.new_context(), client.new_context()
    got = []

    def server_app():
        sock = yield from server_ctx.accept(server_ctx.listen(PORT))
        while True:
            data = yield from server_ctx.recv(sock, 64)
            got.append(data)
            if not data:
                break
        got.append((yield from server_ctx.recv(sock, 64)))  # and stays ended

    def client_app():
        sock = yield from client_ctx.connect(server.ip, PORT)
        yield from client_ctx.send(sock, b"bye")
        yield from client_ctx.close(sock)

    _run(bed, server_app(), client_app())
    assert b"".join(got) == b"bye" and got[-2:] == [b"", b""]


def test_non_blocking_calls_return_what_they_could_do_and_blocking_ones_wait():
    bed, server, client = _pair()
    server_ctx, client_ctx = server.new_context(), client.new_context()
    payload = b"x" * (4 * TX_BUFFER)
    out = {"received": 0}

    def server_app():
        sock = yield from server_ctx.accept(server_ctx.listen(PORT))
        out["recv"] = yield from server_ctx.recv(sock, 64, blocking=False)
        # Reads nothing for 5 ms: the window closes and the sender's buffer fills.
        yield bed.sim.timeout(5_000_000)
        while out["received"] < len(payload):
            out["received"] += len((yield from server_ctx.recv(sock, 65_536)))

    def client_app():
        sock = yield from client_ctx.connect(server.ip, PORT)
        yield bed.sim.timeout(1_000_000)
        out["sent"] = yield from client_ctx.send(sock, payload, blocking=False)
        out["rest"] = yield from client_ctx.send(sock, payload[out["sent"] :])

    _run(bed, server_app(), client_app())
    assert out["recv"] is None
    assert TX_BUFFER <= out["sent"] < len(payload)
    assert out["sent"] + out["rest"] == out["received"] == len(payload)


def test_a_reset_wakes_a_blocked_reader():
    bed, server, client = _pair()
    server_ctx, client_ctx = server.new_context(), client.new_context()
    out = {}

    def server_app():
        sock = yield from server_ctx.accept(server_ctx.listen(PORT))
        server.engine.close_silently(sock.conn)  # the next segment draws a RST

    def client_app():
        sock = yield from client_ctx.connect(server.ip, PORT)
        yield bed.sim.timeout(1_000_000)
        yield from client_ctx.send(sock, b"x")
        try:
            yield from client_ctx.recv(sock, 64)
        except ToeError as error:
            out["error"] = str(error)
        out["reset"] = sock.reset

    _run(bed, server_app(), client_app())
    assert out == {"error": "connection reset", "reset": True}


def test_a_reset_refuses_a_blocked_connect():
    bed, server, client = _pair()
    ctx = client.new_context()
    out = []

    def client_app():
        try:
            yield from ctx.connect(server.ip, PORT)  # nothing listens
        except ConnectRefusedError:
            out.append("refused")

    _run(bed, client_app())
    assert out == ["refused"] and not client.connect_waiters


def test_a_connection_past_a_full_backlog_is_reset():
    bed, server, client = _pair()
    listener = server.new_context().listen(PORT, backlog=1)
    contexts = [client.new_context(0), client.new_context(1)]
    out = []

    def client_app(ctx):
        sock = yield from ctx.connect(server.ip, PORT)
        yield from ctx.send(sock, b"early")
        try:
            out.append((yield from ctx.recv(sock, 64)))
        except ToeError as exc:
            out.append(str(exc))

    _run(bed, *(client_app(ctx) for ctx in contexts))
    # One connection fits the backlog; the other was reset and is gone.
    assert len(listener.ready) == 1
    assert list(server.engine.conns.values()) == list(listener.ready)
    assert out == ["connection reset"]  # the queued one still waits for a reply
    # Data before any accept() wakes no socket; it waits in the engine.
    assert listener.ready[0].readable


def test_a_handshake_completing_after_its_listener_went_is_dropped_silently():
    bed, server, client = _pair()
    server.new_context().listen(PORT)
    ctx = client.new_context()
    out = []

    def client_app():
        out.append((yield from ctx.connect(server.ip, PORT)))

    bed.sim.process(client_app())
    while not server.engine.conns:
        bed.sim.run(until=bed.sim.now + 1_000)
    assert [conn.state for conn in server.engine.conns.values()] == [SYN_RCVD]
    del server.listeners[PORT]  # the listener closes mid-handshake
    bed.sim.run(until=bed.sim.now + 50_000_000)
    assert len(out) == 1  # the client saw its SYN-ACK
    assert not server.engine.conns  # the server kept nothing ...
    assert bed.switch.forwarded == 3  # ... and sent nothing past SYN, SYN-ACK and ACK


def test_a_frame_failing_its_checksum_never_reaches_the_stack():
    bed, server, client = _pair()
    server.new_context().listen(PORT)
    corrupt = _syn(client, server)
    corrupt.set_meta("csum_bad", True)
    client.transmit(corrupt)
    bed.sim.run(until=1_000_000)
    assert server.csum_drops == 1 and bed.switch.forwarded == 1  # unanswered
    client.transmit(_syn(client, server))
    bed.sim.run(until=2_000_000)
    # The same SYN, intact: a SYN-ACK, which the client (that never
    # opened the connection) resets.
    assert server.csum_drops == 1 and bed.switch.forwarded == 4


def test_a_non_tcp_frame_is_ignored():
    bed, server, client = _pair()
    udp = Frame(EthernetHeader(dst=server.mac, src=client.mac), ip=Ipv4Header(client.ip, server.ip, proto=17))
    client.transmit(udp)
    bed.sim.run(until=1_000_000)
    assert bed.switch.forwarded == 1  # no reply of any kind
    client.transmit(_syn(client, server))  # the receive workers still serve
    bed.sim.run(until=2_000_000)
    assert bed.switch.forwarded == 3  # the SYN and its RST


def test_ephemeral_ports_wrap_round():
    bed, server, client = _pair()
    server.new_context().listen(PORT)
    client._ephemeral = 64_999
    ports = []

    def client_app(ctx):
        sock = yield from ctx.connect(server.ip, PORT)
        ports.append(sock.conn.four_tuple[2])

    _run(bed, client_app(client.new_context(0)), client_app(client.new_context(1)))
    assert sorted(ports) == [42_000, 65_000]


def test_a_port_listens_once():
    bed, server, _client = _pair()
    ctx = server.new_context()
    ctx.listen(PORT)
    with pytest.raises(ValueError, match="port 7000 already bound"):
        ctx.listen(PORT)


def test_a_tas_host_needs_a_fast_path_core():
    with pytest.raises(ValueError, match="needs a fast-path core, not 0"):
        build_host(Testbed(), "tas", "tas", fast_path_cores=0)
