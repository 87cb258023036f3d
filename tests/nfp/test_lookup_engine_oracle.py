"""The IMEM lookup engine as flat columns answers exactly as the engine of
packed big ints and tuple chains did: the latter is kept here, its code
unchanged, as the oracle. With eight buckets the random tuples
share chains, so chain order, probe counts and the collision counter are
all exercised, as are re-inserts, removals mid-chain and node reuse."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfp.cam import HashLookupEngine, crc32_tuple, pack_four_tuple

#: Singleton-bucket encoding span: the low 32 bits of the encoded int
#: hold the connection index, the rest the packed key.
_INDEX_SPAN = 1 << 32


class PackedIntLookupEngine:
    """The engine before its columns: one list slot per bucket, holding
    ``key << 32 | index`` for a single entry or a ``[(key, index)]`` chain."""

    def __init__(self, n_buckets=65536):
        self.n_buckets = n_buckets
        self._buckets = [None] * n_buckets
        self.entries = 0
        self.lookups = 0
        self.collisions = 0

    def insert(self, four_tuple, connection_index, crc=None):
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


IPS = st.sampled_from([0, 1, 0x0A000001, 0x0A000002, 0xFFFFFFFF])
PORTS = st.sampled_from([0, 7, 80, 40000, 0xFFFF])
TUPLES = st.tuples(IPS, IPS, PORTS, PORTS)
INDICES = st.integers(min_value=0, max_value=(1 << 20) - 1)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), TUPLES, INDICES, st.booleans()),
        st.tuples(st.just("lookup"), TUPLES),
        st.tuples(st.just("remove"), TUPLES),
    ),
    max_size=120,
)


def counters(engine):
    return engine.entries, engine.lookups, engine.collisions


@settings(max_examples=300, deadline=None)
@given(STEPS)
def test_flat_columns_answer_as_the_packed_int_engine_did(steps):
    oracle, engine = PackedIntLookupEngine(n_buckets=8), HashLookupEngine(n_buckets=8)
    for op, four, *rest in steps:
        if op == "insert":
            index, with_crc = rest
            crc = crc32_tuple(*four) if with_crc else None
            assert oracle.insert(four, index, crc) == engine.insert(four, index, crc)
        else:
            assert getattr(oracle, op)(four) == getattr(engine, op)(four)
        assert counters(oracle) == counters(engine)


def test_node_columns_grow_in_chunks_and_reuse_freed_nodes_last_in_first_out():
    engine = HashLookupEngine(n_buckets=8)
    tuples = [(0x0A000001, 0x0A000002, 1000 + i, 80) for i in range(1500)]
    for index, four in enumerate(tuples):
        engine.insert(four, index)
    assert all(len(column) == 2048 for column in (engine._ips, engine._ports, engine._values, engine._next))
    assert engine._free == 1500  # fresh nodes are taken in ascending order
    engine.remove(tuples[3])
    engine.remove(tuples[9])
    engine.insert((1, 2, 3, 4), 7)
    engine.insert((1, 2, 3, 5), 8)
    assert engine._values[9] == 7 and engine._values[3] == 8 and engine._free == 1500
    assert engine.lookup((1, 2, 3, 4))[:2] == (True, 7) and engine.entries == 1500


def test_an_out_of_range_index_raises_and_leaves_the_engine_unchanged():
    import pytest

    engine = HashLookupEngine(n_buckets=8)
    engine.insert((1, 2, 3, 4), 5)
    for bad, error in ((-1, OverflowError), (1 << 32, OverflowError), ("x", TypeError), (None, TypeError)):
        with pytest.raises(error):
            engine.insert((1, 2, 3, 6), bad)
        assert engine.entries == 1 and engine._free == 1 and engine.lookup((1, 2, 3, 6))[0] is False
    assert engine.lookup((1, 2, 3, 4))[:2] == (True, 5)
