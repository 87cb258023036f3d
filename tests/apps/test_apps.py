"""Application-level tests: protocol codecs, echo server, memcached
with memtier load, RPC clients — on FlexTOE and a baseline stack."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import EchoServer, MemcachedServer, MemtierClient
from repro.apps.memcached import (
    OP_GET,
    OP_SET,
    STATUS_MISS,
    STATUS_OK,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.apps.rpc import ClosedLoopClient, OpenLoopClient
from repro.baselines import add_tas_host
from repro.faults.invariants import run_until
from repro.harness import Testbed


@given(
    st.sampled_from([OP_GET, OP_SET]),
    st.binary(min_size=1, max_size=255),
    st.binary(min_size=0, max_size=1000),
)
def test_request_codec_roundtrip(op, key, value):
    encoded = encode_request(op, key, value)
    parsed = decode_request(encoded + b"trailing")
    assert parsed == (op, key, value, len(encoded))


@given(st.binary(min_size=0, max_size=500))
def test_response_codec_roundtrip(value):
    encoded = encode_response(STATUS_OK, value)
    status, parsed, consumed = decode_response(encoded)
    assert (status, parsed, consumed) == (STATUS_OK, value, len(encoded))


def test_incomplete_requests_return_none():
    full = encode_request(OP_SET, b"key", b"value")
    for cut in range(len(full)):
        assert decode_request(full[:cut]) is None


def build_bed(stack="flextoe"):
    bed = Testbed(seed=5)
    if stack == "flextoe":
        server = bed.add_flextoe_host("server")
    else:
        server = add_tas_host(bed, "server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    return bed, server, client


@pytest.mark.parametrize("stack", ["flextoe", "tas"])
def test_echo_server_closed_loop(stack):
    bed, server, client = build_bed(stack)
    server_ctx = server.new_context()
    client_ctx = client.new_context()
    echo = EchoServer(server_ctx, 7000, request_size=64)
    bed.sim.process(echo.run(), name="echo")
    rpc = ClosedLoopClient(client_ctx, server.ip, 7000, request_size=64, response_size=64, warmup=2)
    proc = bed.sim.process(rpc.run(30), name="rpc")
    bed.sim.run(until=proc)
    assert rpc.completed == 30
    assert echo.requests_served >= 30
    assert rpc.histogram.count == 28
    assert rpc.histogram.percentile(50) > 0


def test_echo_server_app_delay_increases_latency():
    def median_with_delay(delay):
        bed, server, client = build_bed()
        echo = EchoServer(server.new_context(), 7000, request_size=64, app_delay_cycles=delay)
        bed.sim.process(echo.run(), name="echo")
        rpc = ClosedLoopClient(client.new_context(), server.ip, 7000, 64, 64, warmup=2)
        proc = bed.sim.process(rpc.run(20), name="rpc")
        bed.sim.run(until=proc)
        return rpc.histogram.percentile(50)

    fast = median_with_delay(0)
    slow = median_with_delay(200_000)  # 100 us at 2 GHz
    assert slow > fast + 90_000


def test_open_loop_client_pipelines():
    bed, server, client = build_bed()
    echo = EchoServer(server.new_context(), 7000, request_size=128)
    bed.sim.process(echo.run(), name="echo")
    rpc = OpenLoopClient(client.new_context(), server.ip, 7000, 128, 128, pipeline=8)
    bed.sim.process(rpc.run(), name="rpc")
    # The deadline is only the wedge bound: stop as soon as enough
    # pipelined requests completed.
    run_until(bed, lambda: rpc.completed > 20, 20_000_000, step_ns=100_000)
    rpc.stop = True
    assert rpc.completed > 20


@pytest.mark.parametrize("stack", ["flextoe", "tas"])
def test_memcached_with_memtier(stack):
    bed, server, client = build_bed(stack)
    mc = MemcachedServer(server.new_context(), 11211)
    bed.sim.process(mc.run(), name="memcached")
    tier = MemtierClient(client.new_context(), server.ip, 11211, warmup=5, key_space=5)
    proc = bed.sim.process(tier.run(60), name="memtier")
    bed.sim.run(until=proc)
    assert tier.completed == 60
    assert mc.gets > 0 and mc.sets > 0
    assert mc.hits > 0
    assert tier.histogram.count == 55


def test_memcached_miss_path():
    bed, server, client = build_bed()
    mc = MemcachedServer(server.new_context(), 11211)
    bed.sim.process(mc.run(), name="memcached")
    ctx = client.new_context()
    results = {}

    def client_app():
        sock = yield from ctx.connect(server.ip, 11211)
        yield from ctx.send(sock, encode_request(OP_GET, b"absent-key"))
        data = b""
        while decode_response(data) is None:
            data += yield from ctx.recv(sock, 1024)
        status, value, _ = decode_response(data)
        results["status"] = status
        yield from ctx.send(sock, encode_request(OP_SET, b"absent-key", b"now-present"))
        data = b""
        while decode_response(data) is None:
            data += yield from ctx.recv(sock, 1024)
        yield from ctx.send(sock, encode_request(OP_GET, b"absent-key"))
        data = b""
        while decode_response(data) is None:
            data += yield from ctx.recv(sock, 1024)
        status, value, _ = decode_response(data)
        results["value"] = value

    proc = bed.sim.process(client_app(), name="client")
    bed.sim.run(until=proc)
    assert results["status"] == STATUS_MISS
    assert results["value"] == b"now-present"
