"""Host CPU accounting, hugepage pool, machine assembly."""

import pytest

from repro.host import CAT_APP, CAT_SOCKETS, CAT_TCP, CpuCore, CycleAccounting, HostMemory, Machine
from repro.host.memory import BASE_ADDR, HUGEPAGE_SIZE, HugepagePool
from repro.sim import Simulator


def test_core_charges_categories():
    sim = Simulator()
    core = CpuCore(sim, "c0")

    def work(sim):
        yield core.run(2000, CAT_APP)  # 1 us at 2 GHz
        yield core.run(1000, CAT_TCP)

    sim.process(work(sim))
    sim.run()
    assert sim.now == 1500
    assert core.accounting.cycles[CAT_APP] == 2000
    assert core.accounting.cycles[CAT_TCP] == 1000
    assert core.accounting.total() == 3000


def test_core_serializes_two_threads():
    sim = Simulator()
    core = CpuCore(sim, "c0")
    finish = []

    def work(sim):
        yield core.run(2000, CAT_APP)
        finish.append(sim.now)

    sim.process(work(sim))
    sim.process(work(sim))
    sim.run()
    assert finish == [1000, 2000]


def test_accounting_breakdown_percentages():
    acct = CycleAccounting()
    acct.charge(CAT_APP, 750)
    acct.charge(CAT_SOCKETS, 250)
    breakdown = acct.breakdown()
    assert breakdown[CAT_APP] == (750, 75.0)
    assert breakdown[CAT_SOCKETS] == (250, 25.0)


def test_accounting_merge():
    a = CycleAccounting()
    b = CycleAccounting()
    a.charge(CAT_APP, 10)
    b.charge(CAT_APP, 5)
    b.charge("custom", 3)
    a.merge(b)
    assert a.cycles[CAT_APP] == 15
    assert a.cycles["custom"] == 3


def test_hugepage_alloc_alignment_and_exhaustion():
    pool = HugepagePool(n_pages=1)
    region = pool.alloc(100, align=64)
    assert region.addr % 64 == 0
    region2 = pool.alloc(100, align=64)
    assert region2.addr == region.addr + 128  # 100 rounded up to 128
    with pytest.raises(MemoryError):
        pool.alloc(HUGEPAGE_SIZE)


def test_region_read_write_bounds():
    mem = HostMemory()
    region = mem.alloc(64)
    region.write(0, b"hello")
    assert region.read(0, 5) == b"hello"
    with pytest.raises(IndexError):
        region.write(60, b"toolong")
    with pytest.raises(IndexError):
        region.read(60, 10)


def test_region_lookup_by_address():
    mem = HostMemory()
    region = mem.alloc(128)
    found, offset = mem.region_at(region.addr + 32)
    assert found is region
    assert offset == 32
    with pytest.raises(KeyError):
        mem.region_at(0xDEAD)


def test_hugepages_are_mapped_on_demand_and_regions_never_straddle_one():
    pool = HugepagePool(n_pages=2)
    assert pool._pages == []  # nothing is mapped until something is carved
    head = pool.alloc(HUGEPAGE_SIZE - 4096)
    assert len(pool._pages) == 1
    assert head.read(HUGEPAGE_SIZE - 8192, 16) == bytes(16)  # demand-zero
    empty = pool.alloc(0)  # zero-length regions still work
    assert empty.length == 0 and empty.read(0, 0) == b""
    with pytest.raises(IndexError):
        empty.write(0, b"x")
    # 8 KB no longer fits in page 0: the region starts on page 1, whole.
    tail = pool.alloc(8192)
    assert tail.addr == BASE_ADDR + HUGEPAGE_SIZE and len(pool._pages) == 2
    tail.write(8192 - 5, b"hello")
    assert tail.read(8192 - 5, 5) == b"hello"
    assert pool.region_at(tail.addr + 100) == (tail, 100)
    assert pool.region_at(head.addr) == (head, 0)
    with pytest.raises(KeyError):
        pool.region_at(head.addr + head.length + 7)  # the skipped tail of page 0
    with pytest.raises(MemoryError):
        pool.alloc(HUGEPAGE_SIZE)  # what is left of page 1 cannot hold it


def test_machine_aggregate_accounting():
    sim = Simulator()
    machine = Machine(sim, "srv", n_cores=2)

    def work(sim, core):
        yield core.run(100, CAT_APP)

    sim.process(work(sim, machine.cores[0]))
    sim.process(work(sim, machine.cores[1]))
    sim.run()
    assert machine.aggregate_accounting().cycles[CAT_APP] == 200
