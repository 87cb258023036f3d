"""Happens-before pipeline analyzer: model extraction, hb-race, ordering."""

import os

from repro.analysis import hblint, stagelint
from repro.analysis.report import render_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _with_tree(*names):
    """The real data path plus recall fixtures, parsed as one program."""
    paths = stagelint.default_paths() + [_fixture(name) for name in names]
    return stagelint.build_program(stagelint.read_sources(paths))


# -- the model is the declaration -------------------------------------------


def test_model_extracts_all_stage_anchors():
    program = stagelint.build_program()
    replicated = {info.kind: info.replicated for info in program.values() if info.kind is not None}
    assert set(replicated) == {"pre", "proto", "post", "dma", "ctx", "nbi"}
    assert len(program.stage_classes()) == 6
    assert not replicated["proto"] and not replicated["nbi"]
    assert replicated["dma"] and replicated["post"]
    # What the parser read is what the classes declare.
    from repro.flextoe import stages

    for name in program.stage_classes():
        stage = getattr(stages, name)
        assert replicated[stage.STAGE_KIND] == stage.REPLICATED


def test_model_extracts_ordering_anchors():
    from repro.flextoe.datapath import FlexToeDatapath

    assert hblint.SEQR_DOMAINS is FlexToeDatapath.SEQR_DOMAINS
    assert hblint.SEQR_DOMAINS == {"rx_seqr": "rx_gro", "nbi_seqr": "nbi_gro"}
    assert hblint.ORDERED_RINGS == {"dma_ring": "conn", "ctx_ring": "context"}
    # A stage's pipeline position is that of the ring it drains.
    order = hblint.STAGE_ORDER
    assert order["pre"] < order["proto"] < order["post"] < order["dma"] < min(order["ctx"], order["nbi"])
    assert hblint.ENTRY_INDEX < order["pre"]


def test_model_anchor_fallback_for_subset_lints():
    # A fixture linted without datapath.py is still judged against the
    # production ordering anchors: they are imported, not parsed. Alone,
    # its nbi_gro offer also has no nbi_seqr ticket upstream of it.
    alone = stagelint.build_program(stagelint.read_sources([_fixture("hb_dma_reorder.py")]))
    codes = {f.code: f.message for f in hblint.lint_ordering(alone)}
    assert sorted(codes) == ["unfenced-ordered-emit", "unsequenced-gro-offer"]
    assert "ctx_ring" in codes["unfenced-ordered-emit"]
    assert "nbi_seqr" in codes["unsequenced-gro-offer"]


# -- hb-race ----------------------------------------------------------------


def test_baseline_tree_has_no_hb_races():
    assert hblint.lint_hb(hblint.field_verdicts(_with_tree())) == []


def test_baseline_tree_has_no_ordering_violations():
    assert hblint.lint_ordering(_with_tree()) == []


def test_field_verdicts_match_the_partition_design():
    verdicts = hblint.field_verdicts(_with_tree())
    flat = {"{}.{}".format(p, a): v for (p, a), (v, _fp) in verdicts.items()}
    # The TCP machine is owned by the atomic stage...
    assert flat["proto.next_ts"] == hblint.VERDICT_OWNED
    assert flat["proto.seq"] == hblint.VERDICT_OWNED
    # ...identification state is control-plane-installed, read-only...
    assert flat["pre.peer_mac"] == hblint.VERDICT_IMMUTABLE
    # ...and app-interface geometry is read by post AND dma, but written
    # by no stage: still safe.
    assert flat["post.rx_size"] == hblint.VERDICT_IMMUTABLE
    assert hblint.VERDICT_RACE not in flat.values()


def test_declared_counters_are_seen_and_judged_atomic():
    # Their only writes are atomic_add(post, "<field>", ...) calls: the
    # field is a string and the helper lives outside the parsed modules.
    verdicts = hblint.field_verdicts(stagelint.build_program())
    for field in ("cnt_ackb", "cnt_ecnb", "cnt_fretx"):
        verdict, footprint = verdicts[("post", field)]
        assert verdict == hblint.VERDICT_ATOMIC
        assert set(footprint["writes"]) == {"post"}


def test_cross_stage_proto_read_is_an_hb_race():
    # The pre-PR-8 timestamp-echo bug: a DMA replica sampling
    # record.proto.next_ts races the protocol stage's next RX update.
    findings = hblint.lint_hb(hblint.field_verdicts(_with_tree("hb_proto_read.py")))
    assert len(findings) == 1
    finding = findings[0]
    assert finding.code == "hb-race"
    assert finding.path.endswith("hb_proto_read.py")
    assert "proto.next_ts" in finding.message
    assert "'dma'" in finding.message and "'proto'" in finding.message


# -- ordering ---------------------------------------------------------------


def test_unfenced_ctx_emit_is_caught():
    # The PR-2 NOTIFY_RX reordering bug, statically: dma_rx_fence turn
    # deleted, notifications can overtake each other per connection.
    findings = hblint.lint_ordering(_with_tree("hb_dma_reorder.py"))
    assert len(findings) == 1
    finding = findings[0]
    assert finding.code == "unfenced-ordered-emit"
    assert finding.path.endswith("hb_dma_reorder.py")
    assert "ctx_ring" in finding.message


def test_ack_released_before_notification_is_caught():
    findings = hblint.lint_ordering(_with_tree("hb_write_ahead.py"))
    assert len(findings) == 1
    finding = findings[0]
    assert finding.code == "ack-before-notify"
    assert finding.path.endswith("hb_write_ahead.py")
    assert "piggyback_ack" in finding.message


def test_fence_spans_are_recognized():
    import ast

    source = (
        "class S:\n"
        "    STAGE_KIND = 'dma'\n"
        "    REPLICATED = True\n"
        "    def program(self, thread):\n"
        "        turn = dp.some_fence.enter(key)\n"
        "        if turn.blocked():\n"
        "            yield turn.prev\n"
        "        yield dp.dma_ring.put(work)\n"
        "        turn.leave()\n"
    )
    function = ast.parse(source).body[0].body[2]
    fences = hblint._collect_fences(function)
    assert fences and all(start < end for start, end in fences)
    (start, end) = fences[0]
    assert start == 7 and end == 9


def test_findings_are_deterministically_ordered():
    def run():
        program = _with_tree("hb_dma_reorder.py", "hb_write_ahead.py", "hb_proto_read.py")
        return hblint.lint_hb(hblint.field_verdicts(program)) + hblint.lint_ordering(program)

    first, second = run(), run()
    assert len(first) == 3
    assert render_json(first) == render_json(second)
    assert [f.to_dict() for f in first] == [f.to_dict() for f in second]
