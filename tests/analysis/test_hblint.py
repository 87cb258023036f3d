"""Happens-before pipeline analyzer: model extraction, hb-race, ordering."""

import os

from repro.analysis import hblint, stagelint
from repro.analysis.report import render_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _with_tree(name):
    return stagelint.default_paths() + [_fixture(name)]


# -- model extraction -------------------------------------------------------


def test_model_extracts_all_stage_anchors():
    model = hblint.extract_model(hblint._read_sources(stagelint.default_paths()))
    kinds = {s.kind for s in model.stages.values()}
    assert kinds == {"pre", "proto", "post", "dma", "ctx", "nbi"}
    by_kind = {s.kind: s for s in model.stages.values()}
    assert by_kind["proto"].serializes_per_conn
    assert not by_kind["proto"].replicated
    assert by_kind["dma"].replicated and by_kind["post"].replicated


def test_model_extracts_ordering_anchors():
    model = hblint.extract_model(hblint._read_sources(stagelint.default_paths()))
    assert model.seqr_domains == {"rx_seqr": "rx_gro", "nbi_seqr": "nbi_gro"}
    assert model.ordered_rings == {"dma_ring": "conn", "ctx_ring": "context"}


def test_model_anchor_fallback_for_subset_lints():
    # A fixture linted without datapath.py still sees the production
    # ordering anchors (pulled from the real datapath module).
    model = hblint.extract_model(hblint._read_sources([_fixture("hb_dma_reorder.py")]))
    assert model.ordered_rings.get("ctx_ring") == "context"
    assert "nbi_seqr" in model.seqr_domains


# -- hb-race ----------------------------------------------------------------


def test_baseline_tree_has_no_hb_races():
    assert hblint.lint_hb() == []


def test_baseline_tree_has_no_ordering_violations():
    assert hblint.lint_ordering() == []


def test_field_verdicts_match_the_partition_design():
    _model, verdicts = hblint.field_verdicts()
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


def test_cross_stage_proto_read_is_an_hb_race():
    # The pre-PR-8 timestamp-echo bug: a DMA replica sampling
    # record.proto.next_ts races the protocol stage's next RX update.
    findings = hblint.lint_hb(_with_tree("hb_proto_read.py"))
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
    paths = _with_tree("hb_dma_reorder.py") + [_fixture("hb_write_ahead.py"), _fixture("hb_proto_read.py")]
    first = hblint.lint_hb(paths) + hblint.lint_ordering(paths)
    second = hblint.lint_hb(paths) + hblint.lint_ordering(paths)
    assert render_json(first) == render_json(second)
    assert [f.to_dict() for f in first] == [f.to_dict() for f in second]
