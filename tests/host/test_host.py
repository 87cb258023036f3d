"""Host CPU accounting, hugepage pool, machine assembly."""

import mmap
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import CAT_APP, CAT_SOCKETS, CAT_TCP, CpuCore, CycleAccounting, HostMemory, Machine, memory
from repro.host.memory import BASE_ADDR, HUGEPAGE_SIZE, SUBPAGE, HugepagePool
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


def count_mappings(monkeypatch):
    """Make ``memory``'s mappings through a counter; returns its list of
    mapped lengths."""
    mapped = []

    def counted(fileno, length):
        mapped.append(length)
        return mmap.mmap(fileno, length)

    monkeypatch.setattr(memory, "mmap", types.SimpleNamespace(mmap=counted))
    return mapped


def test_regions_never_straddle_a_hugepage(monkeypatch):
    mapped = count_mappings(monkeypatch)
    pool = HugepagePool(n_pages=2)
    head = pool.alloc(HUGEPAGE_SIZE - 4096)
    empty = pool.alloc(0)  # zero-length regions still work
    assert empty.length == 0 and empty.read(0, 0) == b""
    with pytest.raises(IndexError):
        empty.write(0, b"x")
    # 8 KB no longer fits in page 0: the region starts on page 1, whole.
    tail = pool.alloc(8192)
    assert tail.addr == BASE_ADDR + HUGEPAGE_SIZE and pool.used == HUGEPAGE_SIZE + 8192
    assert pool.region_at(tail.addr + 100) == (tail, 100)
    assert pool.region_at(head.addr) == (head, 0)
    assert pool.region_at(head.addr + head.length - 1) == (head, head.length - 1)
    with pytest.raises(KeyError):
        pool.region_at(head.addr + head.length + 7)  # the skipped tail of page 0
    with pytest.raises(MemoryError):
        pool.alloc(HUGEPAGE_SIZE)  # what is left of page 1 cannot hold it
    assert mapped == []  # carving maps nothing
    tail.write(8192 - 5, b"hello")  # ends past the first 4 KiB: page 1 is mapped
    head.write(HUGEPAGE_SIZE - 8192 - 1, b"!")
    assert mapped == [HUGEPAGE_SIZE, HUGEPAGE_SIZE]
    assert tail.read(8192 - 5, 5) == b"hello" and tail.read(0, 16) == bytes(16)
    assert head.read(HUGEPAGE_SIZE - 8192 - 2, 3) == b"\x00!\x00"  # demand-zero around it


def test_no_hugepage_is_mapped_while_writes_stay_in_the_first_page(monkeypatch):
    mapped = count_mappings(monkeypatch)
    pool = HugepagePool(n_pages=1)
    regions = [pool.alloc(65536) for _ in range(64)]
    for n, region in enumerate(regions):
        region.write(n, bytes([n]) * (SUBPAGE - n))
        assert region.read(0, 65536) == bytes(n) + bytes([n]) * (SUBPAGE - n) + bytes(65536 - SUBPAGE)
    assert mapped == []
    regions[7].write(SUBPAGE - 1, b"ab")  # one byte past: this region's page is mapped, once
    regions[9].write(SUBPAGE, b"c")
    assert mapped == [HUGEPAGE_SIZE]
    assert regions[7].read(SUBPAGE - 2, 4) == b"\x07ab\x00"
    assert regions[8].read(0, 65536) == bytes(8) + bytes([8]) * (SUBPAGE - 8) + bytes(65536 - SUBPAGE)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=3 * SUBPAGE), st.data())
def test_a_region_reads_back_what_a_bytearray_of_its_length_would(length, data):
    """Random writes and reads, across the 4 KiB prefix and past what was
    written, against a ``bytearray(length)`` oracle; any that leaves the
    region raises ``IndexError``."""
    region, oracle = HugepagePool(n_pages=1).alloc(length), bytearray(length)
    point = st.one_of(st.integers(0, length), st.sampled_from([SUBPAGE - 1, SUBPAGE, SUBPAGE + 1]),
                      st.integers(-2, length + 2))
    for _ in range(data.draw(st.integers(1, 12))):
        offset, size = data.draw(point), data.draw(st.integers(0, SUBPAGE + 2))
        if data.draw(st.booleans()):
            payload = data.draw(st.binary(min_size=size, max_size=size)) if size < 64 else bytes([size % 251 + 1]) * size
            if offset < 0 or offset + size > length:
                with pytest.raises(IndexError):
                    region.write(offset, payload)
            else:
                region.write(offset, payload)
                oracle[offset : offset + size] = payload
        elif offset < 0 or offset + size > length:
            with pytest.raises(IndexError):
                region.read(offset, size)
        else:
            assert region.read(offset, size) == bytes(oracle[offset : offset + size])
    assert region.read(0, length) == bytes(oracle)


def test_machine_aggregate_accounting():
    sim = Simulator()
    machine = Machine(sim, "srv", n_cores=2)

    def work(sim, core):
        yield core.run(100, CAT_APP)

    sim.process(work(sim, machine.cores[0]))
    sim.process(work(sim, machine.cores[1]))
    sim.run()
    assert machine.aggregate_accounting().cycles[CAT_APP] == 200
