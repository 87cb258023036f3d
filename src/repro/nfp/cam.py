"""Near-memory lookup acceleration (paper §4.1).

* :class:`Cam` — the per-FPC 16-entry fully-associative CAM used to build
  LRU local-memory caches of connection state.
* :class:`HashLookupEngine` — the IMEM lookup engine holding the active
  connection database; CRC-32 of the 4-tuple locates the connection
  index, with CAM-assisted collision resolution.
"""

import zlib
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

    Equality of packed keys is equivalent to equality of tuples, so the
    lookup engine (and anything keying connections by 4-tuple) can store
    a single int instead of a 5-object tuple — ~200 bytes saved per
    connection at million-connection scale.
    """
    local_ip, remote_ip, local_port, remote_port = four_tuple
    return (
        (((local_ip << 32) | remote_ip) << 16 | local_port) << 16
    ) | remote_port


#: Singleton-bucket encoding span: the low 32 bits of the encoded int
#: hold the connection index, the rest the packed key.
_INDEX_SPAN = 1 << 32


class HashLookupEngine:
    """The IMEM-resident active-connection database.

    Maps 4-tuples to connection indices via a CRC-32 hash table with
    chained collision resolution (hardware uses a CAM per bucket). The
    occupancy statistics feed the Figure 14 analysis.

    Storage is deliberately compact — the hardware table is an IMEM
    array, so the model keeps per-connection cost near O(bytes) too.
    The bucket table is a preallocated list (the fixed IMEM array, 8 B
    per bucket of pointer), keys are packed 96-bit ints, and the
    (overwhelmingly common) single-entry bucket is stored as one int
    ``key << 32 | index`` rather than a list of tuples. Buckets
    escalate to ``[(key, index)]`` chains only on a genuine hash
    collision, preserving the exact chain order, probe counts and
    collision accounting of the chained design.
    """

    def __init__(self, n_buckets=65536):
        self.n_buckets = n_buckets
        self._buckets = [None] * n_buckets
        self.entries = 0
        self.lookups = 0
        self.collisions = 0

    def insert(self, four_tuple, connection_index, crc=None):
        """``crc`` is ``crc32_tuple(*four_tuple)`` when the caller has it."""
        if crc is None:
            crc = crc32_tuple(*four_tuple)
        bucket_id = crc % self.n_buckets
        key = pack_four_tuple(four_tuple)
        bucket = self._buckets[bucket_id]
        if bucket is None:
            if isinstance(connection_index, int) and 0 <= connection_index < _INDEX_SPAN:
                self._buckets[bucket_id] = key * _INDEX_SPAN + connection_index
            else:  # exotic index value: fall back to a chain of pairs
                self._buckets[bucket_id] = [(key, connection_index)]
            self.entries += 1
            return
        if isinstance(bucket, int):
            existing_key, existing_index = divmod(bucket, _INDEX_SPAN)
            if existing_key == key:
                self._buckets[bucket_id] = key * _INDEX_SPAN + connection_index
                return
            bucket = [(existing_key, existing_index)]
            self._buckets[bucket_id] = bucket
        for i, (entry_key, _) in enumerate(bucket):
            if entry_key == key:
                bucket[i] = (key, connection_index)
                return
        bucket.append((key, connection_index))
        self.entries += 1

    def lookup(self, four_tuple):
        """Return (found, connection_index, probe_count)."""
        self.lookups += 1
        bucket_id = crc32_tuple(*four_tuple) % self.n_buckets
        bucket = self._buckets[bucket_id]
        if bucket is None:
            return False, None, 1
        key = pack_four_tuple(four_tuple)
        if isinstance(bucket, int):
            existing_key, existing_index = divmod(bucket, _INDEX_SPAN)
            if existing_key == key:
                return True, existing_index, 1
            return False, None, 1
        for probes, (entry_key, index) in enumerate(bucket, start=1):
            if entry_key == key:
                if probes > 1:
                    self.collisions += 1
                return True, index, probes
        return False, None, len(bucket)

    def remove(self, four_tuple):
        bucket_id = crc32_tuple(*four_tuple) % self.n_buckets
        bucket = self._buckets[bucket_id]
        if bucket is None:
            return False
        key = pack_four_tuple(four_tuple)
        if isinstance(bucket, int):
            existing_key, _ = divmod(bucket, _INDEX_SPAN)
            if existing_key != key:
                return False
            self._buckets[bucket_id] = None
            self.entries -= 1
            return True
        for i, (entry_key, _) in enumerate(bucket):
            if entry_key == key:
                del bucket[i]
                if not bucket:
                    self._buckets[bucket_id] = None
                self.entries -= 1
                return True
        return False
