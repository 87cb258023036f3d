"""A memtier_benchmark-style load generator.

Closed-loop KV transactions on persistent connections: each client
connection issues GETs and SETs (default 10:1) with fixed-size keys and
values (32 B in the paper's §2.1/§5.1 experiments), measuring per-request
latency and aggregate throughput."""

import random

from repro.apps.memcached import OP_GET, OP_SET, decode_response, encode_request
from repro.stats import LatencyHistogram, ThroughputMeter

#: GETs per SET.
GET_RATIO = 10


class MemtierClient:
    """One closed-loop connection worth of load."""

    def __init__(
        self,
        ctx,
        server_ip,
        port,
        key_size=32,
        value_size=32,
        key_space=1000,
        seed=0,
        warmup=20,
    ):
        self.ctx = ctx
        self.server_ip = server_ip
        self.port = port
        self.key_size = key_size
        self.value_size = value_size
        self.key_space = key_space
        self.warmup = warmup
        self.histogram = LatencyHistogram()
        self.meter = ThroughputMeter(ctx.sim)
        self.completed = 0
        self._counter = 0
        self._rng = random.Random(seed)
        self.stop = False

    def _key(self):
        key_id = self._rng.randrange(self.key_space)
        base = ("key-%08d" % key_id).encode()
        return base.ljust(self.key_size, b"k")[: self.key_size]

    def _request(self):
        key = self._key()
        self._counter += 1
        if self._counter % (GET_RATIO + 1) == 0:
            return encode_request(OP_SET, key, b"v" * self.value_size)
        return encode_request(OP_GET, key)

    def run(self, n_requests=None):
        ctx = self.ctx
        sock = yield from ctx.connect(self.server_ip, self.port)
        # Prime the keyspace so GETs hit.
        yield from ctx.send(sock, encode_request(OP_SET, self._key(), b"v" * self.value_size))
        yield from self._read_response(sock)
        issued = 0
        while not self.stop and (n_requests is None or issued < n_requests):
            request = self._request()
            start = ctx.sim.now
            yield from ctx.send(sock, request)
            response = yield from self._read_response(sock)
            if response is None:
                return
            issued += 1
            self.completed += 1
            if issued > self.warmup:
                self.histogram.record(ctx.sim.now - start)
                self.meter.record(nbytes=len(request) + len(response))

    def _read_response(self, sock):
        ctx = self.ctx
        buffered = b""
        while True:
            parsed = decode_response(buffered)
            if parsed is not None:
                status, value, consumed = parsed
                assert consumed == len(buffered), "memtier assumes one response in flight"
                return buffered
            chunk = yield from ctx.recv(sock, 64 * 1024)
            if not chunk:
                return None
            buffered += chunk
