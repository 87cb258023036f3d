"""Host memory: the 1G hugepage pool FlexTOE allocates buffers from.

The control-plane maps a pool of physically contiguous 1 GB hugepages at
startup (paper §4) and carves socket payload buffers and context queues
out of it, so NIC DMA needs no page translation. Region contents are
real bytes — DMA in the simulation actually moves the payload, so
end-to-end data integrity is checkable.
"""

import mmap
from bisect import bisect_right

HUGEPAGE_SIZE = 1 << 30
#: Physical address of the hugepage pool's first byte.
BASE_ADDR = 0x1_0000_0000


class Region:
    """A carved-out region: (physical address, length, backing bytes)."""

    __slots__ = ("addr", "length", "data")

    def __init__(self, addr, data):
        self.addr = addr
        self.length = len(data)
        self.data = data  # a window of its hugepage's mapping

    def write(self, offset, payload):
        end = offset + len(payload)
        if offset < 0 or end > self.length:
            raise IndexError("write outside region")
        self.data[offset:end] = payload

    def read(self, offset, length):
        if offset < 0 or offset + length > self.length:
            raise IndexError("read outside region")
        return bytes(self.data[offset : offset + length])


class HugepagePool:
    """Bump allocator over a fixed number of 1G hugepages.

    A page is one anonymous mapping, made when the bump pointer first
    enters it, so memory is demand-zero: a buffer costs the pages it
    touched, not its length. (One mapping per hugepage, not per region:
    the kernel caps mappings per process.) No region straddles a page.
    """

    def __init__(self, n_pages=4):
        self.capacity = n_pages * HUGEPAGE_SIZE
        self.brk = 0
        self._pages = []  # memoryview per mapped hugepage
        self._regions = []  # in address order (the allocator only bumps)
        self._starts = []  # their pool offsets, for region_at's bisect

    def alloc(self, length, align=64):
        """Allocate a region; returns :class:`Region`."""
        page, offset = divmod(-(-self.brk // align) * align, HUGEPAGE_SIZE)
        if offset + length > HUGEPAGE_SIZE:
            page, offset = page + 1, 0  # never straddle: start on the next page
        start = page * HUGEPAGE_SIZE + offset
        if length > HUGEPAGE_SIZE or start + max(length, 1) > self.capacity:
            raise MemoryError("hugepage pool exhausted")
        while len(self._pages) <= page:
            self._pages.append(memoryview(mmap.mmap(-1, HUGEPAGE_SIZE)))
        self.brk = start + length
        region = Region(BASE_ADDR + start, self._pages[page][offset : offset + length])
        self._regions.append(region)
        self._starts.append(start)
        return region

    def region_at(self, addr):
        """Find the region containing physical address ``addr``."""
        slot = bisect_right(self._starts, addr - BASE_ADDR) - 1
        if slot >= 0:
            region = self._regions[slot]
            if addr < region.addr + region.length:
                return region, addr - region.addr
        raise KeyError("no region at address 0x{:x}".format(addr))

    @property
    def used(self):
        return self.brk


class HostMemory:
    """The machine's memory: a hugepage pool plus simple statistics."""

    def __init__(self, n_hugepages=4):
        self.hugepages = HugepagePool(n_pages=n_hugepages)

    def alloc(self, length, align=64):
        return self.hugepages.alloc(length, align)

    def region_at(self, addr):
        return self.hugepages.region_at(addr)
