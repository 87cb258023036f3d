"""libTOE: circular buffers, socket bookkeeping, epoll semantics."""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.plane import TIMER_TICK_NS
from repro.flextoe.descriptors import NOTIFY_TX_ACKED, Notification
from repro.harness import Testbed
from repro.host.memory import HugepagePool
from repro.libtoe import CircularBuffer, EventPoll


def make_buffer(size=256):
    pool = HugepagePool(n_pages=1)
    return CircularBuffer(pool.alloc(size))


def test_circular_write_read_simple():
    buf = make_buffer()
    buf.write(0, b"hello")
    assert buf.read(0, 5) == b"hello"


def test_circular_wraparound():
    buf = make_buffer(size=16)
    buf.write(12, b"abcdefgh")  # wraps: 4 bytes at end, 4 at start
    assert buf.read(12, 8) == b"abcdefgh"
    assert buf.read_at_offset(12, 4) == b"abcd"
    assert buf.read_at_offset(0, 4) == b"efgh"


@settings(max_examples=50)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.binary(min_size=1, max_size=300),
)
def test_circular_roundtrip_any_position(pos, payload):
    buf = make_buffer(size=128)
    data = payload[:128]
    buf.write(pos, data)
    assert buf.read(pos, len(data)) == data


def test_as_triple():
    buf = make_buffer(size=64)
    region, base, size = buf.as_triple()
    assert size == 64
    assert base == region.addr


def build_pair():
    bed = Testbed(seed=11)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    return bed, server, client


def test_nonblocking_recv_returns_none():
    bed, server, client = build_pair()
    out = {}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        out["early"] = yield from server_ctx.recv(sock, 100, blocking=False)
        data = yield from server_ctx.recv(sock, 100)
        out["data"] = data

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.sim_sleep(5_000_000)
        yield from client_ctx.send(sock, b"late")

    client_ctx.sim_sleep = lambda ns: iter([client_ctx.sim.timeout(ns)])
    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=100_000_000)
    assert out.get("early") is None
    assert out.get("data") == b"late"


def test_send_blocks_until_acked_space():
    """A transmit larger than the socket buffer completes once ACKs
    free space (TX_ACKED notifications drive tx_free)."""
    bed, server, client = build_pair()
    payload = bytes(range(256)) * 1200  # 300 KB > 256 KB tx buffer
    out = {}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        got = 0
        while got < len(payload):
            chunk = yield from server_ctx.recv(sock, 65536)
            if not chunk:
                break
            got += len(chunk)
        out["got"] = got

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        sent = yield from client_ctx.send(sock, payload)
        out["sent"] = sent

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=2_000_000_000)
    assert out.get("sent") == len(payload)
    assert out.get("got") == len(payload)


def test_epoll_level_triggered_rearm():
    bed, server, client = build_pair()
    out = {"waits": 0}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        epoll = EventPoll(server_ctx)
        epoll.register(sock)
        # First wait: socket becomes readable with 10 bytes.
        ready = yield from epoll.wait()
        out["waits"] += 1
        assert sock in ready
        data = yield from server_ctx.recv(sock, 4)  # partial read
        out["first"] = data
        # Level-triggered: still readable, second wait returns at once.
        ready = yield from epoll.wait()
        out["waits"] += 1
        assert sock in ready
        out["rest"] = yield from server_ctx.recv(sock, 100)

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.send(sock, b"0123456789")

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=100_000_000)
    assert out.get("first") == b"0123"
    assert out.get("rest") == b"456789"


def test_epoll_unregister_stops_events():
    bed, server, client = build_pair()
    out = {}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        epoll = EventPoll(server_ctx)
        epoll.register(sock)
        ready = yield from epoll.wait()
        epoll.unregister(sock)
        assert not epoll._ready
        out["done"] = True

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.send(sock, b"x")

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=100_000_000)
    assert out.get("done")


def test_socket_byte_counters():
    bed, server, client = build_pair()
    out = {}
    server_ctx = server.new_context()
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        yield from server_ctx.recv(sock, 100)
        yield from server_ctx.send(sock, b"12345678")
        out["sock"] = sock

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.send(sock, b"abc")
        yield from client_ctx.recv(sock, 100)

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=100_000_000)
    sock = out["sock"]
    assert sock.bytes_received == 3
    assert sock.bytes_sent == 8


def _half_close_then_read_late(bed, server, client):
    """The client sends ``ping`` and half-closes; the server answers
    ``pong`` and closes; the client reads only once the control plane's
    timer ticks have withdrawn the connection. The client's socket and
    what it read (kept in the returned dict)."""
    server_ctx, client_ctx = server.new_context(), client.new_context()
    out = {}

    def server_app():
        sock = yield from server_ctx.accept(server_ctx.listen(7000))
        yield from server_ctx.send(sock, b"pong" if (yield from server_ctx.recv(sock, 4096)) == b"ping" else b"?")
        yield from server_ctx.close(sock)

    def client_app():
        sock = out["sock"] = yield from client_ctx.connect(server.ip, 7000)
        yield from client_ctx.send(sock, b"ping")
        yield from client_ctx.close(sock)
        yield bed.sim.timeout(10 * TIMER_TICK_NS)
        out["withdrawn"] = len(client.control_plane.directory) == 0 and client_ctx.sockets == {}
        out["read"] = [(yield from client_ctx.recv(sock, 4096)), (yield from client_ctx.recv(sock, 4096))]

    bed.sim.process(server_app())
    bed.sim.process(client_app())
    bed.sim.run(until=20_000_000)
    return out, client_ctx


def test_a_half_closed_socket_reads_what_came_before_its_withdrawal():
    bed, server, client = build_pair()
    out, _ctx = _half_close_then_read_late(bed, server, client)
    assert out["withdrawn"]  # both FINs seen before the client read
    assert out["read"] == [b"pong", b""]


def test_a_withdrawn_socket_is_held_weakly_by_its_context():
    bed, server, client = build_pair()
    out, ctx = _half_close_then_read_late(bed, server, client)
    sock = out.pop("sock")
    index, token, free = sock.conn_index, sock.token, sock.tx_free

    def late(opaque, length=64):
        return Notification(NOTIFY_TX_ACKED, opaque, index, context_id=ctx.context_id, length=length)

    ctx.pair.inbound.append(late(token))
    assert ctx.dispatch() == 1 and sock.tx_free == free + 64  # still held: it reaches the socket
    gone = weakref.ref(sock)
    del sock
    assert gone() is None  # the context kept it no longer than the application
    stale = late(token + 1000)
    ctx.pair.inbound.extend([late(token), stale])
    assert ctx.dispatch() == 2
    assert ctx._parked == {index: [stale]}  # the let-go generation's dropped; another's may still be adopted
