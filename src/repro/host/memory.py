"""Host memory: the 1G hugepage pool FlexTOE allocates buffers from.

The control-plane maps a pool of physically contiguous 1 GB hugepages at
startup (paper §4) and carves socket payload buffers and context queues
out of it, so NIC DMA needs no page translation. Region contents are
real bytes — DMA in the simulation actually moves the payload, so
end-to-end data integrity is checkable.

A region costs the bytes written to it: what lands in its first
:data:`SUBPAGE` bytes is kept in a ``bytearray`` as long as the highest
byte written, and only a write ending past that maps the region's window
of its hugepage (demand-zero, so even then it costs the pages touched).
"""

import mmap
from bisect import bisect_right

HUGEPAGE_SIZE = 1 << 30
#: Physical address of the hugepage pool's first byte.
BASE_ADDR = 0x1_0000_0000
#: Writes that end within a region's first 4 KiB (one small page) are
#: kept in a ``bytearray``; one ending past it maps the hugepage window.
SUBPAGE = 4096


class Region:
    """A carved-out region: (physical address, length, backing bytes).

    ``data`` holds the bytes written so far — a ``bytearray`` no longer
    than the highest byte written, or, once a write ends past
    :data:`SUBPAGE`, the region's window of its hugepage's mapping. Reads
    past what ``data`` holds are zeros. A region holds the pool's page
    list, never the pool, and nothing in that list refers to a region: no
    cycle keeps a mapping alive until the collector runs.
    """

    __slots__ = ("addr", "length", "data", "pages")

    def __init__(self, addr, length, pages):
        self.addr = addr
        self.length = length
        self.data = bytearray()
        self.pages = pages  # the pool's: a memoryview per mapped hugepage, else None

    def write(self, offset, payload):
        end = offset + len(payload)
        if offset < 0 or end > self.length:
            raise IndexError("write outside region")
        data = self.data
        if end > len(data):  # only ever a bytearray: a window is the whole region
            if end > SUBPAGE:
                data = self._map()
            elif offset >= len(data):  # appending (``+=`` copies once, a slice twice)
                if offset > len(data):
                    data += bytes(offset - len(data))
                data += payload
                return
        data[offset:end] = payload

    def read(self, offset, length):
        end = offset + length
        if offset < 0 or end > self.length:
            raise IndexError("read outside region")
        chunk = bytes(self.data[offset:end])
        return chunk if len(chunk) == length else chunk.ljust(length, b"\0")

    def _map(self):
        """Move ``data`` into the region's window of its hugepage, mapping
        the page if no region has yet; returns the window."""
        page, offset = divmod(self.addr - BASE_ADDR, HUGEPAGE_SIZE)
        if self.pages[page] is None:
            self.pages[page] = memoryview(mmap.mmap(-1, HUGEPAGE_SIZE))
        window = self.pages[page][offset : offset + self.length]
        window[: len(self.data)] = self.data
        self.data = window
        return window


class HugepagePool:
    """Bump allocator over a fixed number of 1G hugepages.

    A page is one anonymous mapping, made when a region's write first
    ends past its :data:`SUBPAGE` prefix, so memory is demand-zero: a
    buffer costs the bytes written to it below 4 KiB, the pages it
    touched above. (One mapping per hugepage, not per region: the kernel
    caps mappings per process.) No region straddles a page.
    """

    def __init__(self, n_pages=4):
        self.capacity = n_pages * HUGEPAGE_SIZE
        self.brk = 0
        self._pages = [None] * n_pages  # a memoryview once a region maps the page
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
        self.brk = start + length
        region = Region(BASE_ADDR + start, length, self._pages)
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
