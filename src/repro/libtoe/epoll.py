"""epoll-style readiness notification over libTOE sockets.

Multi-connection servers (the echo/Memcached applications) register
sockets with an :class:`EventPoll` and sleep until any becomes readable,
mirroring the epoll_wait() loop of the paper's workloads.
"""

from repro.host.cpu import CAT_SOCKETS

COST_EPOLL_WAIT = 120


class EventPoll:
    """Level-triggered readiness over a context's sockets."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.watched = set()
        self._ready = []
        self._ready_set = set()
        ctx.epolls.append(self)

    def register(self, sock):
        self.watched.add(sock)
        if sock.readable:
            self._mark(sock)

    def unregister(self, sock):
        self.watched.discard(sock)
        if sock in self._ready_set:
            self._ready_set.discard(sock)
            self._ready = [s for s in self._ready if s is not sock]

    def on_event(self, sock):
        """Called by the context's dispatch loop."""
        if sock in self.watched and sock.readable:
            self._mark(sock)

    def _mark(self, sock):
        if sock not in self._ready_set:
            self._ready_set.add(sock)
            self._ready.append(sock)

    def wait(self, max_events=64):
        """Block until at least one socket is readable; returns a list."""
        ctx = self.ctx
        cost_fn = getattr(ctx, "epoll_cost_cycles", None)
        cost = cost_fn(len(self.watched)) if cost_fn else COST_EPOLL_WAIT
        yield ctx.core.run(cost, CAT_SOCKETS)
        ctx.dispatch()
        while not self._ready:
            yield from ctx.wait_any()
        events = self._ready[:max_events]
        remaining = self._ready[max_events:]
        self._ready = remaining
        self._ready_set = set(remaining)
        # Re-arm still-readable sockets (level triggered).
        for sock in events:
            if sock.readable and sock in self.watched:
                self._mark(sock)
        return events
