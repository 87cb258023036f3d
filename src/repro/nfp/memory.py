"""The NFP-4000 memory hierarchy (paper §2.3).

Each level has a size and an access latency in FPC cycles. FlexTOE's
connection-state caching (§4.1) moves 108-byte state records between
these levels; where state lives determines per-segment latency, which is
what bends the Figure 14 connection-scalability curve.
"""

#: Access latencies in FPC cycles, per the paper.
LAT_LMEM = 3
LAT_CLS = 100
LAT_CTM = 100
LAT_IMEM = 250
LAT_EMEM_CACHE = 150
LAT_EMEM = 500

#: Issue-side cost of a fire-and-forget atomic add on the EMEM atomic
#: engine. The FPC does not wait for the full EMEM round trip — it posts
#: the command and moves on — so replicated-counter updates (declared via
#: the ``atomic()`` registry in :mod:`repro.flextoe.state`) charge this
#: instead of ``LAT_EMEM``.
LAT_ATOMIC_ADD = 20


class MemoryLevel:
    """One memory level with byte-granularity allocation accounting."""

    __slots__ = ("name", "size", "latency_cycles", "allocated")

    def __init__(self, name, size, latency_cycles):
        self.name = name
        self.size = size
        self.latency_cycles = latency_cycles
        self.allocated = 0

    def alloc(self, nbytes):
        """Reserve ``nbytes``; raises MemoryError when the level is full."""
        if self.allocated + nbytes > self.size:
            raise MemoryError("{} exhausted ({} + {} > {})".format(self.name, self.allocated, nbytes, self.size))
        self.allocated += nbytes
        return self.allocated - nbytes

    def free(self, nbytes):
        self.allocated -= nbytes
        if self.allocated < 0:
            raise RuntimeError("{}: freed more than allocated".format(self.name))

    @property
    def free_bytes(self):
        return self.size - self.allocated

    def __repr__(self):
        return "<{} {}/{} B, {} cyc>".format(self.name, self.allocated, self.size, self.latency_cycles)


def MEM_LMEM():
    """Per-FPC local data memory: 4 KB, ~single-cycle."""
    return MemoryLevel("LMEM", 4 * 1024, LAT_LMEM)


def MEM_CLS(island_id=0):
    """Island-local scratch: 64 KB, up to 100 cycles."""
    return MemoryLevel("CLS{}".format(island_id), 64 * 1024, LAT_CLS)


def MEM_CTM(island_id=0):
    """Island target memory: 256 KB, up to 100 cycles (packet buffers)."""
    return MemoryLevel("CTM{}".format(island_id), 256 * 1024, LAT_CTM)


def MEM_IMEM():
    """Internal memory unit: 4 MB SRAM, up to 250 cycles."""
    return MemoryLevel("IMEM", 4 * 1024 * 1024, LAT_IMEM)


def MEM_EMEM_CACHE():
    """The 3 MB SRAM cache fronting EMEM."""
    return MemoryLevel("EMEM$", 3 * 1024 * 1024, LAT_EMEM_CACHE)


def MEM_EMEM():
    """External memory unit: 2 GB DRAM, up to 500 cycles."""
    return MemoryLevel("EMEM", 2 * 1024 * 1024 * 1024, LAT_EMEM)
