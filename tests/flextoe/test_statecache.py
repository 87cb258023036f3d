"""Connection-state cache hierarchy (LMEM/CLS/EMEM) — the Fig 14 engine."""

from repro.flextoe.statecache import EmemStateCache, StateCache
from repro.nfp.memory import LAT_CLS, LAT_EMEM, LAT_EMEM_CACHE, LAT_LMEM


def test_lmem_hit_after_first_access():
    cache = StateCache(lmem_entries=4, cls_entries=64)
    first = cache.access(1)[0]
    assert first > LAT_LMEM  # cold: came from EMEM
    second = cache.access(1)[0]
    assert second == LAT_LMEM
    assert cache.hits_lmem == 1


def test_cls_hit_after_lmem_eviction():
    cache = StateCache(lmem_entries=2, cls_entries=64)
    cache.access(1)
    cache.access(2)
    cache.access(3)  # evicts conn 1 from LMEM
    latency = cache.access(1)[0]
    # Back from CLS (plus possible writeback), not EMEM.
    assert LAT_CLS <= latency < LAT_EMEM
    assert cache.hits_cls >= 1


def test_direct_mapped_cls_collision_goes_to_emem():
    cache = StateCache(lmem_entries=1, cls_entries=4)
    cache.access(0)
    cache.access(4)  # same CLS slot (4 % 4 == 0)
    latency = cache.access(0)[0]  # evicted from both levels
    assert latency >= LAT_EMEM_CACHE
    assert cache.misses >= 2


def test_emem_cache_bounds_working_set():
    shared = EmemStateCache(capacity_records=4)
    assert shared.access(1) == LAT_EMEM  # cold
    assert shared.access(1) == LAT_EMEM_CACHE  # resident
    for conn in range(2, 7):
        shared.access(conn)  # pushes conn 1 out
    assert shared.access(1) == LAT_EMEM


def test_invalidate_removes_residency():
    cache = StateCache(lmem_entries=4, cls_entries=16)
    cache.access(5)
    cache.access(5)
    cache.invalidate(5)
    assert cache.access(5)[0] > LAT_LMEM


def test_small_working_set_all_lmem():
    cache = StateCache(lmem_entries=16, cls_entries=512)
    for _round in range(3):
        for conn in range(8):
            cache.access(conn)
    # After warmup, everything hits local memory.
    assert cache.hit_rate_lmem > 0.5


def test_large_working_set_degrades_gracefully():
    cache = StateCache(lmem_entries=16, cls_entries=64)
    latencies = []
    for _round in range(2):
        for conn in range(256):
            latencies.append(cache.access(conn)[0])
    # Sustained misses: average latency lands in the EMEM regime.
    average = sum(latencies) / len(latencies)
    assert average > LAT_CLS
