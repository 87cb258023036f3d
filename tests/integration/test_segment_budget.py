"""A segment carries two records through the pipeline — the pre stage's
header summary and the protocol stage's snapshot (paper §3.1.3) — and a
ring hop is a deque operation: the machine-independent unit cost of the
per-segment path is the number of Python and C calls one echo RPC makes,
and the number of events it dispatches. With result objects copied field
by field into the snapshot, an adapter object per state miss and a
``_insert``/``_pop`` hook pair under every store hop it read 7 030 calls;
with every uncontended issue-slot, pool and ring grant going through the
heap, 6 910 calls and 298.95 events; with every sleep going through it,
6 658 calls and 252.27 events; with FPC computes, host-core runs and DMA
operations as processes and resource requests, 6 530 calls and the same
213.69 events; with a ``Timeout`` per link hop and a process per switch
egress burst, 5 352 calls. Host-time noise cannot hide a regression here
the way it can in ``wall_s`` (DESIGN §4, §12)."""

import gc
import sys
from collections import Counter

import pytest

from repro.analysis import sanitizer
from repro.baselines import add_chelsio_host, add_linux_host, add_tas_host
from repro.harness import Testbed
from repro.host import CpuCore
from repro.net import Topology
from repro.nfp import DmaEngine
from repro.nfp.fpc import Chain, FpcThread
from repro.proto import Frame, make_tcp_frame
from repro.sim import Process, Simulator, Timeout
from repro.sim.resources import ResourceRequest

RPCS = 64
SIZE = 64
#: Python + C calls per warm 64-byte echo RPC, both hosts, everything the
#: simulator runs in that time included: reads 3 405.02 (3 431.02 with a
#: wrapper object around each ring's store, a doorbell looked up by key per
#: post and per wait, and a reorder buffer choosing between two outputs,
#: 4 644.12 with the data path's FPC programs as generator processes,
#: 4 647.16 with the queue spilled to the heap once a heap entry sorts
#: first, 4 757.67 with wakes and puts run in place instead of queued,
#: 5 008.28 with every put pushed, 5 040.09 with every wake pushed too, 5 117.34 with a start step
#: per DMA op too, 5 352.13 with the wire as timeouts and processes,
#: 6 530.08 with the engines as processes too); the bound is that reading
#: + 0.5 %, rounded down.
CALLS_PER_RPC = 3422
#: Events dispatched per warm echo RPC: reads 61.12 (62.47 with the queue
#: spilled to the heap once a heap entry sorts first, 159.22 with every
#: entry for now pushed but in-place wakes and puts, 191.22 with every put
#: pushed, 207.22 with every wake pushed too, 213.44 with a start step per
#: DMA op too, 252.27 with every sleep pushed). The count is exact; the
#: bound is that reading + 1 %, rounded up, so a sleep, grant, start step
#: or same-instant entry per RPC going back through the heap (DESIGN §12
#: rule 3) fails.
EVENTS_PER_RPC = 62


#: The same two budgets per baseline stack, whose frames cross the same
#: wire: calls per RPC read 717.53 / 929.34 / 869.47 for Linux / TAS /
#: Chelsio (717.50 / 929.31 / 869.44 with wakes run in place instead of
#: queued, 729.50 / 953.31 / 881.44 with every frame's wake of the receive
#: loop pushed, 735.50 / 965.31 / 887.44 with a start step per switch
#: egress burst too, 849.50 / 1 201.31 / 1 001.44 with the wire as timeouts
#: and processes), bounded at + 0.5 %, rounded down; events read 13.89 /
#: 16.09 / 12.69 (15.89 / 20.03 / 14.69 with wakes run in place instead of
#: queued, 17.89 / 24.03 / 16.69 with the wakes pushed), bounded at + 1 %,
#: rounded up to a tenth.
BASELINE_BUDGETS = {
    "linux": (add_linux_host, 721, 14.1),
    "tas": (add_tas_host, 933, 16.3),
    "chelsio": (add_chelsio_host, 873, 12.9),
}


def echo_pair(add_host=None):
    """Two hosts (FlexTOE unless ``add_host(bed, name)`` builds another
    stack), one established connection, eight RPCs done."""
    bed = Testbed(seed=1)
    if add_host is None:
        server = bed.add_flextoe_host("server")
        client = bed.add_flextoe_host("client")
    else:
        server = add_host(bed, "server")
        client = add_host(bed, "client")
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


def calls_and_events(add_host=None):
    """Python + C calls and events per warm echo RPC."""
    bed, measured = echo_pair(add_host)
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
    return calls, (bed.sim.processed_events - events) / RPCS


def test_an_echo_rpc_stays_within_its_call_budget():
    if sanitizer.enabled():
        pytest.skip("the budget is the unsanitized data path's")
    calls, events = calls_and_events()
    hooks = {key: n for key, n in calls.items() if key[0].endswith("sim/resources.py") and key[1] in ("_insert", "_pop")}
    assert not hooks, "a store hop went back through an overridable hook"
    assert sum(calls.values()) <= CALLS_PER_RPC * RPCS, calls.most_common(20)
    assert events <= EVENTS_PER_RPC, events


@pytest.mark.parametrize("stack", sorted(BASELINE_BUDGETS))
def test_a_baseline_echo_rpc_stays_within_its_budgets(stack):
    if sanitizer.enabled():
        pytest.skip("the budget is the unsanitized data path's")
    add_host, calls_per_rpc, events_per_rpc = BASELINE_BUDGETS[stack]
    calls, events = calls_and_events(add_host)
    assert sum(calls.values()) <= calls_per_rpc * RPCS, calls.most_common(20)
    assert events <= events_per_rpc, events


def _where(code):
    return code.co_filename.replace("\\", "/").rsplit("/repro/", 1)[-1], code.co_name


def test_an_engine_use_makes_no_request_timeout_or_process():
    """An FPC compute, a host-core run and a DMA operation are continuations
    (DESIGN §12 rule 3): during echo RPCs none of them constructs a
    ``ResourceRequest``, a ``Timeout`` or a ``Process``, nor does a memory
    read's wait, a chain's own entry."""
    bed, measured = echo_pair()
    client = bed.sim.process(measured(), name="client")
    kernel = {
        ResourceRequest.__init__.__code__: "ResourceRequest",
        Simulator.timeout.__code__: "Timeout",
        Timeout.__init__.__code__: "Timeout",
        Process.__init__.__code__: "Process",
    }
    engines = {FpcThread.charge.__code__, CpuCore.run.__code__, DmaEngine.issue.__code__}
    uses = Counter()
    made = Counter()

    def profiler(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in engines:
            uses[code.co_name] += 1
        elif code in kernel:
            caller = frame.f_back
            # Resource.request, Simulator.process, and a chain's request of a pool for its program.
            while _where(caller.f_code)[0].startswith("sim/") or caller.f_code is Chain.request.__code__:
                caller = caller.f_back
            made[(kernel[code],) + _where(caller.f_code)] += 1

    sys.setprofile(profiler)
    try:
        bed.sim.run(until=client)
    finally:
        sys.setprofile(None)
    assert uses["charge"] and uses["run"] and uses["issue"], uses
    by_engines = {
        key: n for key, n in made.items()
        if key[1] in ("nfp/fpc.py", "host/cpu.py", "nfp/dma.py")
    }
    assert not by_engines, by_engines


#: Process resumes per warm echo RPC: the two apps' only, 6.03 (173 with
#: the data path's FPC programs as generator processes).
RESUMES_PER_RPC = 40


def test_no_data_path_program_resumes_as_a_process():
    """Every program the data path runs — the stages, the scheduler, the
    GRO deliveries, the state snapshots — is a Step chain (DESIGN §4):
    during echo RPCs no process whose code is the NIC's resumes, and the
    processes that do (apps, libTOE, the control plane) resume fewer than
    ``RESUMES_PER_RPC`` times per RPC."""
    bed, measured = echo_pair()
    client = bed.sim.process(measured(), name="client")
    resumed = Counter()

    def profiler(frame, event, _arg):
        if event == "call" and _where(frame.f_code) == ("sim/core.py", "_resume"):  # the sanitizer's wraps it
            resumed[_where(frame.f_locals["self"]._generator.gi_code)[0]] += 1

    sys.setprofile(profiler)
    try:
        bed.sim.run(until=client)
    finally:
        sys.setprofile(None)
    assert resumed, "no process resumed: the profile saw nothing"
    assert not [path for path in resumed if path.startswith(("flextoe/", "nfp/", "sim/"))], resumed
    assert sum(resumed.values()) < RESUMES_PER_RPC * RPCS, resumed


def test_a_frame_crosses_the_switch_as_continuations_measured_twice():
    """A link hop is a ``Step`` and a switch egress drain is no process
    (DESIGN §12 rule 3): a frame crossing the switch constructs no
    ``Process`` and no ``Timeout``, and its length is computed once at the
    sending port and once at the egress queue."""
    sim = Simulator()
    topo = Topology(sim)
    a = topo.attach("a", mac=0xA, ip=1)
    b = topo.attach("b", mac=0xB, ip=2)
    got = []
    b.port.receiver = got.append
    frame = make_tcp_frame(0xA, 0xB, 1, 2, 3, 4, payload=b"x" * 64)
    watched = {
        Process.__init__.__code__: "Process",
        Simulator.timeout.__code__: "Timeout",
        Timeout.__init__.__code__: "Timeout",
        Frame.wire_len.fget.__code__: "wire_len",
    }
    made = Counter()

    def profiler(code_frame, event, _arg):
        if event == "call" and code_frame.f_code in watched:
            made[watched[code_frame.f_code]] += 1

    sys.setprofile(profiler)
    try:
        a.port.send(frame)
        sim.run()
    finally:
        sys.setprofile(None)
    assert got == [frame] and sim.processed_events == 3  # two hops and a drain start
    assert made == Counter(wire_len=2), made
