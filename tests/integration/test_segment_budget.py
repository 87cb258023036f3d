"""A segment carries two records through the pipeline — the pre stage's
header summary and the protocol stage's snapshot (paper §3.1.3) — and a
ring hop is a deque operation: the machine-independent unit cost of the
per-segment path is the number of Python and C calls one echo RPC makes,
and the number of events it dispatches. With result objects copied field
by field into the snapshot, an adapter object per state miss and a
``_insert``/``_pop`` hook pair under every store hop it read 7 030 calls;
with every uncontended issue-slot, pool and ring grant going through the
heap, 6 910 calls and 298.95 events; with every sleep going through it,
6 658 calls and 252.27 events. Host-time noise cannot hide a
regression here the way it can in ``wall_s`` (DESIGN §4, §12)."""

import gc
import sys
from collections import Counter

import pytest

from repro.analysis import sanitizer
from repro.harness import Testbed

RPCS = 64
SIZE = 64
#: Python + C calls per warm 64-byte echo RPC, both hosts, everything the
#: simulator runs in that time included: reads 6 530.08 (6 658.31 with
#: every sleep pushed); the bound is that reading + 0.5 %, rounded down.
CALLS_PER_RPC = 6560
#: Events dispatched per warm echo RPC: reads 213.69 (252.27 with every
#: sleep pushed). The count is exact; the bound is that reading + 1 %,
#: rounded up, so a sleep or grant per RPC going back through the heap
#: (DESIGN §12 rule 3) fails.
EVENTS_PER_RPC = 216


def echo_pair():
    """Two FlexTOE hosts, one established connection, eight RPCs done."""
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    server_ctx, client_ctx = server.new_context(), client.new_context()
    opened = []

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        while True:
            data = yield from server_ctx.recv(sock, 1024)
            yield from server_ctx.send(sock, data)

    def rpcs(sock, count):
        for i in range(count):
            request = bytes([i]) * SIZE
            yield from client_ctx.send(sock, request)
            reply = b""
            while len(reply) < SIZE:
                reply += yield from client_ctx.recv(sock, SIZE - len(reply))
            assert reply == request

    def warm():
        opened.append((yield from client_ctx.connect(server.ip, 7000)))
        yield from rpcs(opened[0], 8)

    bed.sim.process(server_app(), name="server")
    bed.sim.run(until=bed.sim.process(warm(), name="warm"))
    return bed, lambda: rpcs(opened[0], RPCS)


def test_an_echo_rpc_stays_within_its_call_budget():
    if sanitizer.enabled():
        pytest.skip("the budget is the unsanitized data path's")
    bed, measured = echo_pair()
    client = bed.sim.process(measured(), name="client")
    calls = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[(frame.f_code.co_filename, frame.f_code.co_name)] += 1
        elif event == "c_call":
            calls[("C", arg.__qualname__)] += 1

    gc.collect()  # an earlier test's garbage, finalised in here, would be counted
    gc.disable()
    events = bed.sim.processed_events
    sys.setprofile(profiler)
    try:
        bed.sim.run(until=client)
    finally:
        sys.setprofile(None)
        gc.enable()
    events = bed.sim.processed_events - events
    hooks = {key: n for key, n in calls.items() if key[0].endswith("sim/resources.py") and key[1] in ("_insert", "_pop")}
    assert not hooks, "a store hop went back through an overridable hook"
    assert sum(calls.values()) <= CALLS_PER_RPC * RPCS, calls.most_common(20)
    assert events <= EVENTS_PER_RPC * RPCS, events / RPCS
