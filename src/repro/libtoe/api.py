"""The libTOE socket API.

All operations are generator coroutines executed inside an application
process on a host :class:`~repro.host.CpuCore`, charging socket-API
cycles (the only host TCP-related cost left under FlexTOE, Table 1).

Usage pattern::

    ctx = LibToeContext(sim, core, nic, control_plane, context_id=1)
    sock = yield from ctx.connect(remote_ip, remote_port)
    yield from ctx.send(sock, b"hello")
    data = yield from ctx.recv(sock, 4096)
    yield from ctx.close(sock)
"""

from repro.flextoe.descriptors import (
    HC_FIN,
    HC_RX_UPDATE,
    HC_TX_UPDATE,
    NOTIFY_ERROR,
    NOTIFY_FIN,
    NOTIFY_RX,
    NOTIFY_TX_ACKED,
    HostControlDescriptor,
)
from repro.host.cpu import CAT_SOCKETS
from repro.libtoe.errors import (
    ConnectionClosedError,
    ConnectionTimeoutError,
    PeerResetError,
    ToeError,
)

#: Socket-API cycle costs (calibrated so a request-response pair lands
#: near Table 1's 740 cycles of POSIX-socket time under FlexTOE).
COST_SEND = 300
COST_RECV = 300
COST_POLL = 70
COST_SETUP = 2000
COST_PER_KB_COPY = 60


class ToeSocket:
    """An established, offloaded connection as libTOE sees it."""

    __slots__ = (
        "conn_index",
        "ctx",
        "rx_buffer",
        "tx_buffer",
        "rx_ready",
        "rx_bytes_ready",
        "tx_free",
        "tx_head",
        "peer_fin",
        "fin_sent",
        "four_tuple",
        "bytes_sent",
        "bytes_received",
        "error",
        "token",
    )

    def __init__(self, ctx, conn_index, four_tuple, rx_buffer, tx_buffer, token=None):
        self.ctx = ctx
        self.conn_index = conn_index
        # Establishment generation (mirrors the NIC's opaque handle);
        # used to reject notifications left over from a previous
        # connection that occupied the same index.
        self.token = token
        self.four_tuple = four_tuple
        self.rx_buffer = rx_buffer
        self.tx_buffer = tx_buffer
        self.rx_ready = []  # (offset, length) notifications; a deque is 760 B empty
        self.rx_bytes_ready = 0
        self.tx_free = tx_buffer.size
        self.tx_head = 0
        self.peer_fin = False
        self.fin_sent = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.error = None  # fatal ToeError delivered by the control plane

    @property
    def readable(self):
        return self.rx_bytes_ready > 0 or self.peer_fin

    def __repr__(self):
        return "<ToeSocket conn={} ready={}B>".format(self.conn_index, self.rx_bytes_ready)


class LibToeContext:
    """A per-application-thread context: queue pair + socket table."""

    def __init__(self, sim, core, nic, control_plane, context_id):
        self.sim = sim
        self.core = core
        self.nic = nic
        self.control_plane = control_plane
        self.context_id = context_id
        self.pair = nic.register_context(context_id)
        self.sockets = {}
        self.epolls = []
        # Notifications that arrived before their connection was adopted
        # (data can land while the connection sits in the accept queue)
        # or after its index was reallocated; keyed by conn_index and
        # drained — generation-filtered — at adoption time.
        self._parked = {}

    # -- connection setup ---------------------------------------------------

    def _adopt(self, established):
        """Wrap control-plane connection info in a ToeSocket."""
        sock = ToeSocket(
            self,
            established.conn_index,
            established.four_tuple,
            established.rx_buffer,
            established.tx_buffer,
            token=established.token,
        )
        self.sockets[sock.conn_index] = sock
        for notification in self._parked.pop(sock.conn_index, ()):
            if self._matches(sock, notification):
                self._deliver(sock, notification)
        return sock

    def listen(self, port, backlog=128):
        """Register a listener; returns a listener handle (non-blocking)."""
        return self.control_plane.listen(self, port, backlog)

    def accept(self, listener):
        """Wait for and adopt an incoming connection."""
        yield self.core.run(COST_SETUP, CAT_SOCKETS)
        established = yield from self.control_plane.accept_wait(listener)
        return self._adopt(established)

    def connect(self, remote_ip, remote_port):
        """Open a connection; blocks through the control-plane handshake."""
        yield self.core.run(COST_SETUP, CAT_SOCKETS)
        established = yield from self.control_plane.connect(self, remote_ip, remote_port)
        return self._adopt(established)

    # -- data path -------------------------------------------------------------

    def _post_hc(self, descriptor):
        if not self.nic.post_hc(self.context_id, descriptor):
            raise ToeError("context queue overflow")

    def send(self, sock, data, blocking=True):
        """Append ``data`` to the socket's TX stream.

        Returns the number of bytes accepted (all of them when
        ``blocking``)."""
        if sock.error is not None:
            raise sock.error
        if sock.peer_fin and not data:
            raise ConnectionClosedError("peer closed")
        total = 0
        view = memoryview(data)
        while view:
            while sock.tx_free == 0:
                if not blocking:
                    return total
                yield from self._wait_and_dispatch()
                if sock.error is not None:
                    raise sock.error
            chunk = view[: sock.tx_free]
            yield self.core.run(
                COST_SEND + COST_PER_KB_COPY * (len(chunk) // 1024), CAT_SOCKETS
            )
            sock.tx_buffer.write(sock.tx_head, bytes(chunk))
            sock.tx_head += len(chunk)
            sock.tx_free -= len(chunk)
            sock.bytes_sent += len(chunk)
            self._post_hc(
                HostControlDescriptor(HC_TX_UPDATE, sock.conn_index, value=len(chunk))
            )
            total += len(chunk)
            view = view[len(chunk) :]
        return total

    def recv(self, sock, max_bytes, blocking=True):
        """Read up to ``max_bytes`` of in-order payload.

        Returns b"" on a clean peer close."""
        if sock.error is not None:
            raise sock.error
        while sock.rx_bytes_ready == 0:
            if sock.peer_fin:
                return b""
            if not blocking:
                return None
            yield from self._wait_and_dispatch()
            if sock.error is not None:
                raise sock.error
        yield self.core.run(
            COST_RECV + COST_PER_KB_COPY * (min(max_bytes, sock.rx_bytes_ready) // 1024),
            CAT_SOCKETS,
        )
        chunks = []
        ready = sock.rx_ready
        taken = done = 0
        while done < len(ready) and taken < max_bytes:
            offset, length = ready[done]
            take = min(length, max_bytes - taken)
            chunks.append(sock.rx_buffer.read_at_offset(offset, take))
            taken += take
            if take == length:
                done += 1
            else:
                ready[done] = ((offset + take) % sock.rx_buffer.size, length - take)
        del ready[:done]
        sock.rx_bytes_ready -= taken
        sock.bytes_received += taken
        # Return the consumed space to the receive window.
        self._post_hc(HostControlDescriptor(HC_RX_UPDATE, sock.conn_index, value=taken))
        return b"".join(chunks)

    def close(self, sock):
        """Half-close: send FIN after pending data; free on completion."""
        yield self.core.run(COST_SEND, CAT_SOCKETS)
        if not sock.fin_sent:
            sock.fin_sent = True
            self._post_hc(HostControlDescriptor(HC_FIN, sock.conn_index))
        self.control_plane.notify_close(sock.conn_index)

    # -- event handling ------------------------------------------------------

    @staticmethod
    def _matches(sock, notification):
        """False when the notification belongs to a different generation
        of this conn index than the socket (stale after index reuse)."""
        return (
            sock.token is None
            or notification.opaque is None
            or notification.opaque == sock.token
        )

    def _deliver(self, sock, notification):
        if notification.kind == NOTIFY_RX:
            sock.rx_ready.append((notification.offset, notification.length))
            sock.rx_bytes_ready += notification.length
        elif notification.kind == NOTIFY_TX_ACKED:
            sock.tx_free += notification.length
        elif notification.kind == NOTIFY_FIN:
            sock.peer_fin = True
        elif notification.kind == NOTIFY_ERROR:
            if notification.error == "reset":
                sock.error = PeerResetError("connection reset by peer")
            else:
                sock.error = ConnectionTimeoutError("connection timed out")
        for epoll in self.epolls:
            epoll.on_event(sock)

    def dispatch(self):
        """Drain the inbound context queue into socket state; returns the
        number of notifications processed."""
        count = 0
        while True:
            notification = self.pair.poll()
            if notification is None:
                return count
            count += 1
            sock = self.sockets.get(notification.conn_index)
            if sock is not None and self._matches(sock, notification):
                self._deliver(sock, notification)
                continue
            # Either the connection is still in the accept queue (no
            # socket yet) or the index was reallocated to a newer
            # generation: park for the matching adoption, never drop —
            # data may arrive before accept() returns.
            self._parked.setdefault(notification.conn_index, []).append(notification)

    def _wait_and_dispatch(self):
        """Block until the NIC delivers a notification, then dispatch.

        Models the poll-then-eventfd-sleep behavior of §4: the context
        manager raises an MSI-X interrupt for sleeping contexts."""
        yield self.core.run(COST_POLL, CAT_SOCKETS)
        if not self.pair.inbound:
            yield self.pair.wait()
        self.dispatch()

    def wait_any(self):
        """Public wrapper: wait for any notification on this context."""
        yield from self._wait_and_dispatch()

    def epoll_cost_cycles(self, n_watched):
        """libTOE epoll cost: flat — readiness comes from the context
        queue, so cost does not scale with watched connections."""
        return 120
