"""State costs what it holds (DESIGN §12, §13): building the NIC model
allocates for what is installed and queued, not for capacity nobody has
used yet. Measured with ``tracemalloc`` as the bytes a construction still
holds once it returns, so a structure that is pre-built again fails here
and not only in ``perf/``'s ``peak_rss_mb``."""

import gc
import inspect
import tracemalloc

import pytest

from repro.analysis import sanitizer
from repro.control.plane import ControlPlaneConfig
from repro.control.recovery import SHADOW_SLAB
from repro.flextoe import CarouselScheduler, slab
from repro.flextoe.state import CONN_SLAB
from repro.harness import Testbed
from repro.host.memory import HugepagePool, Region
from repro.sim import Simulator
from tests.host.test_host import count_mappings
from tests.integration.driver import run_apps

#: Two FlexTOE hosts, nothing connected: reads 1.52 MiB (1.75 MiB under
#: REPRO_SANITIZE=1), 512 KiB of it the two chips' lookup-engine bucket
#: heads (4 B each). With the heads a list of 8 B pointers it read
#: 2.02 MiB; with a 4 096-slot wheel built up front per host as well,
#: 8.06 MiB.
TESTBED_BUDGET = 2 << 20
#: One idle flow scheduler: reads 1.4 KB; 3 074 KB with every slot's
#: queue built up front.
SCHEDULER_BUDGET = 16 << 10
#: One adopted, quiescent connection, its two slab rows charged at their
#: declared width (193 + 142 B): reads 365 — the rows, its lookup-engine
#: node (20 B, plus chunk slack) and its two table slots (8). With every
#: 32-bit field in an 8 B column (252 + 178 B), a 48 B packed-int bucket
#: entry and 8 B table slots it read 495; with a record and a shadow
#: object per connection as well, and the dict holding the shadows, 679.
ADOPT_BUDGET = 420
ADOPTED = 2000
#: One churned connection — connect, echo 256 B, close from the client
#: side only, as ``conn-churn`` does — once it is done, past a warm-up:
#: reads 5 534 B (5 891 under REPRO_SANITIZE=1), all of it left behind:
#: a finished connection's buffers, sockets and lookup entries are not
#: freed (ROADMAP item 2). Its four payload buffers keep the bytes
#: written, 313 B each as a ``bytearray``. With each buffer a 4 KiB window
#: of a mapped hugepage and two 760 B deques for ``rx_ready`` it read
#: 6 584 B, and 16 KiB resident besides that tracemalloc never sees.
CHURN_BUDGET = 6 << 10
CHURNED = 32


def held_by(build):
    """Bytes still allocated after ``build()`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build()  # noqa: F841  (alive until counted)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def two_host_testbed():
    bed = Testbed(seed=1)
    bed.add_flextoe_host("server")
    bed.add_flextoe_host("client")
    bed.seed_all_arp()
    return bed


def test_bare_two_host_testbed_stays_within_its_footprint():
    held = held_by(two_host_testbed)
    assert held <= TESTBED_BUDGET, "%.2f MiB" % (held / (1 << 20))


def test_idle_flow_scheduler_holds_no_empty_slots():
    sim = Simulator()
    held = held_by(lambda: CarouselScheduler(sim, trigger_tx=None))
    assert held <= SCHEDULER_BUDGET, "%.1f KiB" % (held / 1024)


def traced_beside_slab_growth():
    """Bytes ``tracemalloc`` holds now, less what a ``Slab`` allocated to
    grow: which 4 096-row step a test crosses depends on the tests before
    it, so rows are charged their declared width instead."""
    lines, first = inspect.getsourcelines(slab.Slab)
    grown = range(first, first + len(lines))
    gc.collect()
    return sum(
        trace.size
        for trace in tracemalloc.take_snapshot().traces
        if not (trace.traceback[0].filename == slab.__file__ and trace.traceback[0].lineno in grown)
    )


def held_beside_slab_growth(action):
    """Bytes still allocated after ``action()``, less slab growth."""
    gc.collect()
    tracemalloc.start()
    try:
        action()
        return traced_beside_slab_growth()
    finally:
        tracemalloc.stop()


def test_a_quiescent_connection_is_its_rows():
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server", cp_kwargs={"config": ControlPlaneConfig(snapshot_interval_ns=0)})
    client = bed.add_flextoe_host("client")
    if sanitizer.enabled():
        pytest.skip("a sanitized install also registers its row's owner")
    recovery = server.control_plane.recovery
    server.nic.register_context(500, capacity=4)
    region = server.machine.memory.alloc(4096)
    shared = (region, region.addr, 4096)

    def adopt():
        for i in range(ADOPTED):
            recovery.adopt_offloaded((server.ip, (11 << 24) + i, 9, 40000), client.mac, server.mac, 1, 1, 500, None, shared, shared)

    rows = CONN_SLAB.bytes_per_slot() + SHADOW_SLAB.bytes_per_slot()
    per_connection = held_beside_slab_growth(adopt) / ADOPTED + rows
    assert per_connection <= ADOPT_BUDGET, "%.1f B per connection" % per_connection


def churn(bed, n, port, request=b"\x5a" * 256):
    """``n`` connections one after another, each echoing ``request``
    once and closed by the client; the server forgets a connection at
    its peer's FIN without closing it (``perf/``'s ``conn-churn``)."""
    server, client = bed.hosts["server"], bed.hosts["client"]
    server_ctx, client_ctx = server.new_context(), client.new_context()

    def serve(sock):
        data = yield from server_ctx.recv(sock, 4096)
        yield from server_ctx.send(sock, data)

    def accept():
        listener = server_ctx.listen(port, backlog=n)
        for _ in range(n):
            bed.sim.process(serve((yield from server_ctx.accept(listener))))

    def lifecycles():
        for _ in range(n):
            sock = yield from client_ctx.connect(server.ip, port)
            yield from client_ctx.send(sock, request)
            assert (yield from client_ctx.recv(sock, 4096)) == request
            yield from client_ctx.close(sock)

    apps = [bed.sim.process(accept()), bed.sim.process(lifecycles())]
    run_apps(bed, apps, deadline_ns=bed.sim.now + n * 10_000_000)


def test_a_churned_connection_keeps_the_bytes_written_not_pages(monkeypatch):
    mapped = count_mappings(monkeypatch)
    bed = two_host_testbed()
    tracemalloc.start()
    try:
        # Traced from the start, so the pipeline's in-flight structures a
        # lifecycle replaces cancel out; past the warm-up's connections
        # the state caches are full.
        churn(bed, CHURNED, 7000)
        warm = traced_beside_slab_growth()
        churn(bed, CHURNED, 7001)
        per_connection = (traced_beside_slab_growth() - warm) / CHURNED
    finally:
        tracemalloc.stop()
    assert mapped == [], "a 256 B echo mapped a hugepage"
    assert per_connection <= CHURN_BUDGET, "%.1f B per connection" % per_connection


def test_a_dropped_testbed_keeps_no_buffer():
    """One collection after a testbed's last reference goes, none of its
    pools or regions is alive: nothing global holds them, and no cycle
    made while the collector finalizes it waits for a second one."""

    def alive():
        return [o for o in gc.get_objects() if isinstance(o, (HugepagePool, Region))]

    gc.collect()
    before = alive()
    bed = two_host_testbed()
    churn(bed, 2, 7000)
    assert len(alive()) > len(before)
    del bed
    gc.collect()
    assert [o for o in alive() if not any(o is old for old in before)] == []
