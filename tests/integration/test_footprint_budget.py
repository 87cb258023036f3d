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
from repro.sim import Simulator

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


def held_beside_slab_growth(action):
    """Bytes still allocated after ``action()``, less what a ``Slab``
    allocated to grow: which 4 096-row step a test crosses depends on the
    tests before it, so rows are charged their declared width instead."""
    lines, first = inspect.getsourcelines(slab.Slab)
    grown = range(first, first + len(lines))
    gc.collect()
    tracemalloc.start()
    try:
        action()
        gc.collect()
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    return sum(
        trace.size
        for trace in traces
        if not (trace.traceback[0].filename == slab.__file__ and trace.traceback[0].lineno in grown)
    )


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
