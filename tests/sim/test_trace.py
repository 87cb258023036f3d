"""TracepointRegistry: the disabled path must be free.

Table 2 of the paper quantifies tracing overhead when *on*; when *off*
the harness relies on tracing being zero-cost — no buffer appends, no
cycle charges — so benchmarks measure the data path, not the probes.
"""

from repro.flextoe.tracing import TRACEPOINTS, TracepointRegistry


def test_disabled_recorder_never_appends():
    trace = TracepointRegistry(enabled=False, limit=4)
    for i in range(1000):
        trace.hit(i, "proto", "rx.segment", payload=i)
    assert trace.records == []
    assert trace.dropped == 0


def test_disabled_registry_hits_are_free():
    registry = TracepointRegistry(enabled=False)
    for name in TRACEPOINTS:
        assert registry.hit(0, "proto", name) == 0
        assert registry.cost(name) == 0
    assert registry.records == []


def test_enable_disable_roundtrip():
    registry = TracepointRegistry(enabled=False)
    registry.enable_all()
    assert registry.hit(5, "proto", "rx.segment") == TRACEPOINTS["rx.segment"]
    assert len(registry.records) == 1
    registry.disable_all()
    assert registry.hit(6, "proto", "rx.segment") == 0
    assert len(registry.records) == 1  # nothing new appended


def test_clear_resets_records_and_drops():
    trace = TracepointRegistry(enabled=True, limit=2)
    for i in range(5):
        trace.hit(i, "pre", "rx.segment")
    assert len(trace.records) == 2
    assert trace.dropped == 3
    trace.clear()
    assert (trace.records, trace.dropped) == ([], 0)
    trace.hit(9, "pre", "rx.segment")
    assert trace.records == [(9, "pre", "rx.segment", None)]


def test_selective_enable_appends_only_active():
    registry = TracepointRegistry(enabled=False)
    registry.enable(["ack.sent"])
    registry.hit(1, "proto", "ack.sent")
    registry.hit(2, "proto", "rx.segment")
    assert registry.count("ack.sent") == 1
    assert registry.count("rx.segment") == 0
