"""A connection is installed as a row, not as an object graph (paper
§3.4, Table 5): the machine-independent unit cost of an install is the
number of Python and C calls it makes, and none of them may be a
per-field slab property. Before installs were compiled row writes an
adopt made 157 calls, 76 of them property setters and 19 getters, and
``sparse-idle``'s set-up paid 22.7 µs per connection for them (DESIGN
§12's ledger, "compiled row ops"); it reads 32. Host-time noise cannot
hide a regression here the way it can in ``setup_s``. Nor may an install
make an object: a quiescent connection is its two slab rows (DESIGN §13)."""

import gc
import sys
from collections import Counter

import pytest

from repro.analysis import sanitizer
from repro.control.plane import ControlPlaneConfig
from repro.control.recovery import RecoveryManager
from repro.flextoe.nic import FlexToeNic
from repro.flextoe.slab import SlabView
from repro.harness import Testbed

#: Calls per install: reads 29 per adopt, 25 per handshake install
#: (Python 3.11).
INSTALL_CALLS = 32


def calls_under(roots, action):
    """Run ``action``; count every Python and C call made while one of
    the functions in ``roots`` is executing, the root calls included."""
    codes = {root.__code__ for root in roots}
    calls = Counter()
    depth = 0

    def profiler(frame, event, arg):
        nonlocal depth
        if event == "call":
            if frame.f_code in codes:
                depth += 1
            if depth:
                calls[frame.f_code.co_name] += 1
        elif event == "return":
            if frame.f_code in codes:
                depth -= 1
        elif event == "c_call" and depth:
            calls[arg.__qualname__] += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def production_only():
    """``REPRO_SANITIZE=1`` installs at data-path construction; a
    sanitized install also audits the slot."""
    if sanitizer.enabled():
        pytest.skip("the budget is the unsanitized install's")


def views_owning(rows):
    """The objects owning one of ``rows``, ``(slab, slot)`` pairs: a view
    made of a row owns its slot."""
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, SlabView) and obj._own and (obj.SLAB, obj.slab_slot) in rows]


def assert_row_install(calls, installs):
    assert not (calls["fset"] or calls["fget"]), "an install went back to per-field property access"
    assert calls["write"] == 2 * installs  # one connection row, one shadow row
    assert sum(calls.values()) <= INSTALL_CALLS * installs, calls.most_common()


def test_an_adopt_is_two_row_writes_and_a_bounded_number_of_calls():
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server", cp_kwargs={"config": ControlPlaneConfig(snapshot_interval_ns=0)})
    client = bed.add_flextoe_host("client")
    production_only()
    recovery = server.control_plane.recovery
    server.nic.register_context(500, capacity=4)
    region = server.machine.memory.alloc(4096)
    shared = (region, region.addr, 4096)

    def adopt(count, base):
        for i in range(base, base + count):
            recovery.adopt_offloaded((server.ip, (11 << 24) + i, 9, 40000), client.mac, server.mac, 1, 1, 500, None, shared, shared)

    adopt(8, 0)  # the context's first connection taps its queue pair
    calls = calls_under([RecoveryManager.adopt_offloaded], lambda: adopt(1000, 8))
    assert calls["adopt_offloaded"] == 1000
    assert_row_install(calls, 1000)
    table, shadows = server.nic.datapath.conn_table, recovery.shadows
    rows = {(table.view_class.SLAB, slot) for _index, slot in table.items()}
    rows |= {(shadows.view_class.SLAB, slot) for _index, slot in shadows.items()}
    assert len(rows) == 2 * 1008 and views_owning(rows) == []  # parked: slab bytes only
    index = recovery.adopt_offloaded((server.ip, 12 << 24, 9, 40000), client.mac, server.mac, 1, 1, 500, None, shared, shared)
    record = server.nic.connection(index)  # the first touch makes the record, and nothing more
    assert record._pre is None and record._proto is None and record._post is None
    assert server.nic.connection(index) is record and recovery.shadows.get(index).four_tuple == record.four_tuple


def test_a_handshake_installs_the_same_way():
    bed = Testbed(seed=1)
    server = bed.add_flextoe_host("server")
    client = bed.add_flextoe_host("client")
    production_only()
    bed.seed_all_arp()
    server_ctx, client_ctx = server.new_context(), client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        while True:
            yield from server_ctx.accept(listener)

    def client_app(count):
        for _ in range(count):
            yield from client_ctx.connect(server.ip, 7000)

    bed.sim.process(server_app(), name="server")
    bed.sim.run(until=bed.sim.process(client_app(1), name="warm"))  # taps both contexts
    one_more = bed.sim.process(client_app(1), name="client")
    install = [FlexToeNic.offload_connection, RecoveryManager.track]
    calls = calls_under(install, lambda: bed.sim.run(until=one_more))
    assert calls["offload_connection"] == 2 and calls["track"] == 2  # one handshake: both ends install
    assert_row_install(calls, 2)
