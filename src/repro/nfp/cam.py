"""Near-memory lookup acceleration (paper §4.1).

* :class:`Cam` — the per-FPC 16-entry fully-associative CAM used to build
  LRU local-memory caches of connection state.
* :class:`HashLookupEngine` — the IMEM lookup engine holding the active
  connection database; CRC-32 of the 4-tuple locates the connection
  index, with CAM-assisted collision resolution.
"""

import zlib
from array import array
from collections import OrderedDict


class Cam:
    """A fully-associative CAM with LRU eviction (default 16 entries)."""

    def __init__(self, capacity=16):
        if capacity <= 0:
            raise ValueError("CAM capacity must be positive")
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key):
        """Return (hit, value). A hit refreshes LRU position."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True, self._entries[key]
        self.misses += 1
        return False, None

    def insert(self, key, value):
        """Insert/update; returns the evicted (key, value) or None."""
        evicted = None
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            evicted = self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value
        return evicted

    def invalidate(self, key):
        return self._entries.pop(key, None)

    def clear(self):
        """Drop every entry (fault injection: forced cache flush)."""
        flushed = len(self._entries)
        self._entries.clear()
        return flushed

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def crc32_tuple(local_ip, remote_ip, local_port, remote_port):
    """CRC-32 over the 4-tuple, as the pre-processor computes in CRC HW."""
    data = (
        local_ip.to_bytes(4, "big")
        + remote_ip.to_bytes(4, "big")
        + local_port.to_bytes(2, "big")
        + remote_port.to_bytes(2, "big")
    )
    return zlib.crc32(data) & 0xFFFFFFFF


def pack_four_tuple(four_tuple):
    """Pack a (ip, ip, port, port) 4-tuple into one 96-bit int key.

    Equality of packed keys is equivalent to equality of tuples, so
    anything keying connections by 4-tuple can store a single int
    instead of a 5-object tuple.
    """
    local_ip, remote_ip, local_port, remote_port = four_tuple
    return (
        (((local_ip << 32) | remote_ip) << 16 | local_port) << 16
    ) | remote_port


#: Node columns grow by this many nodes (20 B each) when full.
_NODE_CHUNK = 1024
#: "No node": an empty bucket's head, a chain's end, an empty free list.
_NIL = -1


class HashLookupEngine:
    """The IMEM-resident active-connection database.

    Maps 4-tuples to connection indices via a CRC-32 hash table with
    chained collision resolution (hardware uses a CAM per bucket). The
    occupancy statistics feed the Figure 14 analysis.

    Storage is flat columns, as the hardware's IMEM arrays are: the
    bucket table is an ``array('i')`` of chain heads (4 B a bucket, -1
    empty), and a chain node is one row across four node columns — the
    96-bit key as its IPs (``Q``) and ports (``I``), the connection index
    (``I``) and the next node (``i``). A chain appends at its tail, so
    chain order, probe counts and collision accounting are those of a
    list of ``(key, index)`` pairs per bucket. Free nodes are chained
    through ``next``, and a freed node is the next one taken; the columns
    grow by ``_NODE_CHUNK`` nodes when none is free. A key or index
    outside its column's range raises ``OverflowError``.
    """

    def __init__(self, n_buckets=65536):
        self.n_buckets = n_buckets
        self._heads = array("i", [_NIL]) * n_buckets
        self._ips = array("Q")  # node -> local_ip << 32 | remote_ip
        self._ports = array("I")  # node -> local_port << 16 | remote_port
        self._values = array("I")  # node -> connection index
        self._next = array("i")  # node -> next node of its chain, or of the free list
        self._free = _NIL  # first free node; the free list is chained through next
        self.entries = 0
        self.lookups = 0
        self.collisions = 0

    def _grow(self):
        """Add ``_NODE_CHUNK`` nodes as the (empty) free list, in order."""
        first = len(self._next)
        for column in (self._ips, self._ports, self._values):
            column.frombytes(bytes(_NODE_CHUNK * column.itemsize))
        self._next.extend(range(first + 1, first + _NODE_CHUNK))
        self._next.append(_NIL)
        self._free = first

    def insert(self, four_tuple, connection_index, crc=None):
        """``crc`` is ``crc32_tuple(*four_tuple)`` when the caller has it."""
        if crc is None:
            crc = crc32_tuple(*four_tuple)
        bucket_id = crc % self.n_buckets
        local_ip, remote_ip, local_port, remote_port = four_tuple
        ips = local_ip << 32 | remote_ip
        ports = local_port << 16 | remote_port
        tail = node = self._heads[bucket_id]
        while node >= 0:
            if self._ips[node] == ips and self._ports[node] == ports:
                self._values[node] = connection_index
                return
            tail = node
            node = self._next[node]
        if self._free < 0:
            self._grow()
        node = self._free
        # Written before the node is taken: a value out of its column's
        # range raises with the engine unchanged.
        self._ips[node] = ips
        self._ports[node] = ports
        self._values[node] = connection_index
        self._free = self._next[node]
        self._next[node] = _NIL
        if tail < 0:
            self._heads[bucket_id] = node
        else:
            self._next[tail] = node
        self.entries += 1

    def lookup(self, four_tuple):
        """Return (found, connection_index, probe_count)."""
        self.lookups += 1
        node = self._heads[crc32_tuple(*four_tuple) % self.n_buckets]
        if node < 0:
            return False, None, 1
        local_ip, remote_ip, local_port, remote_port = four_tuple
        ips = local_ip << 32 | remote_ip
        ports = local_port << 16 | remote_port
        probes = 1
        while True:
            if self._ips[node] == ips and self._ports[node] == ports:
                if probes > 1:
                    self.collisions += 1
                return True, self._values[node], probes
            node = self._next[node]
            if node < 0:
                return False, None, probes
            probes += 1

    def remove(self, four_tuple):
        bucket_id = crc32_tuple(*four_tuple) % self.n_buckets
        node = self._heads[bucket_id]
        if node < 0:
            return False
        local_ip, remote_ip, local_port, remote_port = four_tuple
        ips = local_ip << 32 | remote_ip
        ports = local_port << 16 | remote_port
        nxt = self._next
        prev = _NIL
        while node >= 0:
            if self._ips[node] == ips and self._ports[node] == ports:
                if prev < 0:
                    self._heads[bucket_id] = nxt[node]
                else:
                    nxt[prev] = nxt[node]
                nxt[node] = self._free
                self._free = node
                self.entries -= 1
                return True
            prev = node
            node = nxt[node]
        return False
