"""Connection-state caching for the protocol stage (paper §4.1).

Three levels: a 16-entry CAM-backed LRU cache in FPC local memory, a
512-entry direct-mapped second level in island CLS, and EMEM (fronted by
its SRAM cache) as the backing store. The cache only models *latency* —
state objects are always coherent Python objects — but the level at which
an access hits determines the cycles charged, which is what produces the
Figure 14 connection-scalability curve.
"""

from repro.nfp.cam import Cam
from repro.nfp.memory import LAT_CLS, LAT_EMEM, LAT_EMEM_CACHE, LAT_LMEM


class EmemStateCache:
    """The chip-wide EMEM SRAM cache, shared by all flow groups.

    Capacity is expressed in connection records (the paper fits ~16K
    records of 108 B in the 3 MB SRAM alongside other EMEM traffic).
    """

    def __init__(self, capacity_records=16384):
        self.cam = Cam(capacity=capacity_records)

    def access(self, conn_index):
        """Returns the access latency in cycles and refreshes residency."""
        hit, _ = self.cam.lookup(conn_index)
        self.cam.insert(conn_index, True)
        return LAT_EMEM_CACHE if hit else LAT_EMEM


class StateCache:
    """Per-protocol-FPC cache hierarchy."""

    def __init__(self, lmem_entries=16, cls_entries=512, emem_cache=None):
        self.lmem = Cam(capacity=lmem_entries)
        self.cls_entries = cls_entries
        self.cls_slots = {}
        self.emem_cache = emem_cache or EmemStateCache()
        self.hits_lmem = 0
        self.hits_cls = 0
        self.misses = 0
        self.forced_flushes = 0

    #: Issue-slot cycles spent *moving* a 108-byte record (read/write
    #: commands, tag checks, eviction bookkeeping). Unlike the wait
    #: latency — which other hardware threads hide — these instructions
    #: occupy the protocol FPC and are what bend the Figure 14 curve
    #: ("a cache miss at every pipeline stage for every segment").
    ISSUE_CLS = 25
    ISSUE_EMEM = 200

    def access(self, conn_index):
        """Charge for bringing ``conn_index``'s state to local memory.

        Returns ``(latency_cycles, issue_cycles)``: the off-slot wait
        and the on-slot instruction cost of the state movement.
        """
        hit, _ = self.lmem.lookup(conn_index)
        if hit:
            self.hits_lmem += 1
            return LAT_LMEM, 0
        latency = 0
        issue = 0
        slot = conn_index % self.cls_entries
        if self.cls_slots.get(slot) == conn_index:
            self.hits_cls += 1
            latency += LAT_CLS
            issue += self.ISSUE_CLS
        else:
            self.misses += 1
            latency += self.emem_cache.access(conn_index)
            issue += self.ISSUE_EMEM
            evicted_slot_owner = self.cls_slots.get(slot)
            if evicted_slot_owner is not None:
                latency += LAT_CLS  # write back the displaced record
            self.cls_slots[slot] = conn_index
            latency += LAT_CLS  # install into CLS
        evicted = self.lmem.insert(conn_index, True)
        if evicted is not None:
            latency += LAT_CLS  # write back from local memory to CLS
        return latency, issue

    def flush(self):
        """Evict every cached record (fault injection: forced eviction).

        The next access per connection falls through to the EMEM path,
        recreating the cold-cache cost the Figure 14 curve measures.
        """
        self.forced_flushes += 1
        self.lmem.clear()
        self.cls_slots.clear()

    def invalidate(self, conn_index):
        self.lmem.invalidate(conn_index)
        slot = conn_index % self.cls_entries
        if self.cls_slots.get(slot) == conn_index:
            del self.cls_slots[slot]

    @property
    def hit_rate_lmem(self):
        total = self.hits_lmem + self.hits_cls + self.misses
        return self.hits_lmem / total if total else 0.0
