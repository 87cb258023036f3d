"""A multi-connection RPC echo server.

Fixed-size message framing (both sides agree on the request size), an
epoll accept/serve loop, and an optional per-RPC artificial processing
delay in host cycles — exactly the server the paper's §5.2 benchmarks
run ("to simulate application processing, our server waits for an
artificial delay of 250 or 1,000 cycles for each RPC").
"""

from repro.host.cpu import CAT_APP
from repro.libtoe.epoll import EventPoll


class EchoServer:
    """Echoes fixed-size requests; optionally replies with a fixed-size
    response instead of the request body (consumer/producer modes)."""

    def __init__(self, ctx, port, request_size, response_size=None, app_delay_cycles=0):
        self.ctx = ctx
        self.port = port
        self.request_size = request_size
        self.response_size = response_size  # None = echo the request
        self.app_delay_cycles = app_delay_cycles
        self.requests_served = 0
        self.connections_accepted = 0
        self._buffers = {}

    def run(self):
        """The server process: accept loop + epoll serve loop."""
        ctx = self.ctx
        listener = ctx.listen(self.port)
        epoll = EventPoll(ctx)
        ctx.sim.process(self._acceptor(listener, epoll), name="echo-acceptor")
        while True:
            ready = yield from epoll.wait()
            for sock in ready:
                yield from self._serve(sock, epoll)

    def _acceptor(self, listener, epoll):
        while True:
            sock = yield from self.ctx.accept(listener)
            self.connections_accepted += 1
            self._buffers[sock.conn_index] = b""
            epoll.register(sock)

    def _serve(self, sock, epoll):
        ctx = self.ctx
        data = yield from ctx.recv(sock, 256 * 1024, blocking=False)
        if data is None:
            return
        if data == b"":
            epoll.unregister(sock)  # peer closed
            self._buffers.pop(sock.conn_index, None)
            return
        buffered = self._buffers.get(sock.conn_index, b"") + data
        while len(buffered) >= self.request_size:
            request = buffered[: self.request_size]
            buffered = buffered[self.request_size :]
            if self.app_delay_cycles:
                yield ctx.core.run(self.app_delay_cycles, CAT_APP)
            if self.response_size is None:
                response = request
            else:
                response = b"R" * self.response_size
            yield from ctx.send(sock, response)
            self.requests_served += 1
        self._buffers[sock.conn_index] = buffered


def run_echo_server(ctx, port, request_size, **kwargs):
    """Convenience: build the server and return (server, process)."""
    server = EchoServer(ctx, port, request_size, **kwargs)
    process = ctx.sim.process(server.run(), name="echo-server")
    return server, process
