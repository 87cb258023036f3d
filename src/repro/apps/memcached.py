"""A Memcached-style key-value server over TCP.

Compact binary protocol (all integers big-endian):

* request: op(1) keylen(1) vallen(2) key val — op 0 = GET, 1 = SET
* response: status(1) vallen(2) val — status 0 = OK/hit, 1 = miss

The per-request application work (hash + store access + response build)
is charged in host cycles, calibrated so that with 32-byte keys/values
the application share lands near Table 1's Memcached profile."""

import struct

from repro.host.cpu import CAT_APP
from repro.libtoe.epoll import EventPoll

OP_GET = 0
OP_SET = 1
STATUS_OK = 0
STATUS_MISS = 1

REQ_HEADER = struct.Struct("!BBH")
RESP_HEADER = struct.Struct("!BH")

#: Application cycles per request (hashing, lookup, response build).
CYCLES_GET = 700
CYCLES_SET = 850
CYCLES_PER_KB = 120


def encode_request(op, key, value=b""):
    return REQ_HEADER.pack(op, len(key), len(value)) + key + value


def decode_request(buffer):
    """Parse one request from ``buffer``; returns (op, key, value,
    consumed) or None if incomplete."""
    if len(buffer) < REQ_HEADER.size:
        return None
    op, keylen, vallen = REQ_HEADER.unpack_from(buffer, 0)
    total = REQ_HEADER.size + keylen + vallen
    if len(buffer) < total:
        return None
    key = bytes(buffer[REQ_HEADER.size : REQ_HEADER.size + keylen])
    value = bytes(buffer[REQ_HEADER.size + keylen : total])
    return op, key, value, total


def encode_response(status, value=b""):
    return RESP_HEADER.pack(status, len(value)) + value


def decode_response(buffer):
    if len(buffer) < RESP_HEADER.size:
        return None
    status, vallen = RESP_HEADER.unpack_from(buffer, 0)
    total = RESP_HEADER.size + vallen
    if len(buffer) < total:
        return None
    return status, bytes(buffer[RESP_HEADER.size : total]), total


class MemcachedServer:
    """One server thread: its own context, epoll loop, shared store."""

    def __init__(self, ctx, port, store=None):
        self.ctx = ctx
        self.port = port
        self.store = store if store is not None else {}
        self.requests = 0
        self.gets = 0
        self.sets = 0
        self.hits = 0
        self._buffers = {}

    def run(self, listener=None):
        ctx = self.ctx
        if listener is None:
            listener = ctx.listen(self.port)
        epoll = EventPoll(ctx)
        ctx.sim.process(self._acceptor(listener, epoll), name="mc-acceptor")
        while True:
            ready = yield from epoll.wait()
            for sock in ready:
                yield from self._serve(sock, epoll)

    def _acceptor(self, listener, epoll):
        while True:
            sock = yield from self.ctx.accept(listener)
            self._buffers[sock.conn_index] = b""
            epoll.register(sock)

    def _serve(self, sock, epoll):
        ctx = self.ctx
        data = yield from ctx.recv(sock, 128 * 1024, blocking=False)
        if data is None:
            return
        if data == b"":
            epoll.unregister(sock)  # peer closed
            self._buffers.pop(sock.conn_index, None)
            return
        buffered = self._buffers.get(sock.conn_index, b"") + data
        responses = []
        while True:
            parsed = decode_request(buffered)
            if parsed is None:
                break
            op, key, value, consumed = parsed
            buffered = buffered[consumed:]
            self.requests += 1
            if op == OP_SET:
                self.sets += 1
                yield ctx.core.run(
                    CYCLES_SET + CYCLES_PER_KB * (len(value) // 1024), CAT_APP
                )
                self.store[key] = value
                responses.append(encode_response(STATUS_OK))
            else:
                self.gets += 1
                yield ctx.core.run(CYCLES_GET, CAT_APP)
                stored = self.store.get(key)
                if stored is None:
                    responses.append(encode_response(STATUS_MISS))
                else:
                    self.hits += 1
                    responses.append(encode_response(STATUS_OK, stored))
        self._buffers[sock.conn_index] = buffered
        if responses:
            yield from ctx.send(sock, b"".join(responses))
