"""One handshake, one connection: what the server establishes is what an
accept() (or the accept queue) owns, however the handshake went."""

from repro.control.plane import ControlPlaneConfig
from repro.harness import Testbed
from repro.proto.tcp import FLAG_ACK, FLAG_SYN

from tests.integration.driver import assert_drained, run_apps

PORT = 7000


class DropFirstSynAck:
    """A switch fault hook that loses the first SYN-ACK it sees."""

    def __init__(self):
        self.dropped = 0

    def admit(self, frame):
        tcp = frame.tcp
        if tcp is not None and not self.dropped and tcp.flags & FLAG_SYN and tcp.flags & FLAG_ACK:
            self.dropped += 1
            return []
        return [(frame, 0)]


class Tap:
    """A pass-through switch fault hook that keeps every frame."""

    def __init__(self):
        self.frames = []

    def admit(self, frame):
        self.frames.append(frame)
        return [(frame, 0)]


def _owned_equals_installed(server, owned):
    """Accepted sockets == directory entries == conn_table rows."""
    plane = server.control_plane
    assert len(plane.directory) == len(plane.directory.by_tuple) == owned
    assert len(server.nic.datapath.conn_table.records()) == owned


def test_lost_syn_ack_establishes_the_connection_once():
    bed = Testbed(seed=11)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    bed.switch.faults = hook = DropFirstSynAck()
    sctx = server.new_context()
    listener = sctx.listen(PORT, backlog=8)
    accepted = []
    replies = []

    def echo(sock):
        data = yield from sctx.recv(sock, 64)
        yield from sctx.send(sock, data)

    def acceptor():
        while True:
            accepted.append((yield from sctx.accept(listener)))
            bed.sim.process(echo(accepted[-1]), name="echo")

    def client_app():
        cctx = client.new_context()
        sock = yield from cctx.connect(server.ip, PORT)
        yield from cctx.send(sock, b"ping")
        replies.append((yield from cctx.recv(sock, 64)))

    bed.sim.process(acceptor(), name="acceptor")
    run_apps(bed, [bed.sim.process(client_app(), name="client")], deadline_ns=20_000_000)

    assert hook.dropped == 1
    assert server.control_plane.syn_retransmits == 0  # the client's retransmission, not ours
    assert client.control_plane.syn_retransmits == 1
    assert replies == [b"ping"]
    assert len(accepted) == 1 and not listener.ready
    _owned_equals_installed(server, 1)


def test_a_different_syn_on_a_live_tuple_is_challenged():
    bed = Testbed(seed=11)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    sctx = server.new_context()
    listener = sctx.listen(PORT, backlog=8)
    bed.switch.faults = tap = Tap()

    def client_app():
        yield from client.new_context().connect(server.ip, PORT)

    run_apps(bed, [bed.sim.process(client_app(), name="client")], deadline_ns=5_000_000)
    syn = next(f for f in tap.frames if f.tcp is not None and f.tcp.flags == FLAG_SYN)
    plane = server.control_plane
    before = plane.challenge_acks

    stale = syn.copy()
    stale.tcp.seq = (syn.tcp.seq + 1000) & 0xFFFFFFFF
    del tap.frames[:]
    plane.handle_frame(stale)
    bed.sim.run(until=bed.sim.now + 1_000_000)

    assert plane.challenge_acks == before + 1
    assert [f.tcp.flags for f in tap.frames if f.tcp is not None] == [FLAG_ACK]
    assert len(listener.ready) == 1
    _owned_equals_installed(server, 1)
    assert_drained(bed)


def test_deferred_accept_admits_no_more_than_someone_will_own():
    bed = Testbed(seed=11)
    config = ControlPlaneConfig(syn_defense_enabled=True)
    server = bed.add_flextoe_host("server", cp_kwargs={"config": config})
    clients = [bed.add_flextoe_host("c%d" % i) for i in range(4)]
    bed.seed_all_arp()
    sctx = server.new_context()
    listener = sctx.listen(PORT, backlog=1)
    accepted = []
    connected = []

    def accept_once():
        accepted.append((yield from sctx.accept(listener)))

    def connector(host):
        try:
            connected.append((yield from host.new_context().connect(server.ip, PORT)))
        except Exception:  # refused after the SYN retries ran out
            pass

    bed.sim.process(accept_once(), name="accept")  # parked before any SYN
    for host in clients:
        bed.sim.process(connector(host), name="conn")
    bed.sim.run(until=20_000_000)

    plane = server.control_plane
    owned = len(accepted) + len(listener.ready)
    assert owned == 2  # the parked accept() and backlog=1
    assert len(connected) == owned
    assert plane.syn_dropped > 0 and listener.embryonic == plane.embryonic == 0
    _owned_equals_installed(server, owned)
    assert_drained(bed)
