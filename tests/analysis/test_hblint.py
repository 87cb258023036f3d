"""The hb-race pass over the real data path: the model and its verdicts."""

import os

from repro.analysis import stagelint
from repro.analysis.report import render_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Two stages breaking Table 5: a replicated post stage storing into its
#: own partition, a DMA stage storing into the protocol stage's.
RACY_WRITERS = '''
class RatePost:
    STAGE_KIND = "post"
    REPLICATED = True

    def program(self, thread):
        record = self.dp.conn_table.get(0)
        record.post.rate = 5
        yield None


class SeqDma:
    STAGE_KIND = "dma"
    REPLICATED = True

    def program(self, thread):
        record = self.dp.conn_table.get(0)
        record.proto.seq = 0
        yield None
'''


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _with_tree(*names):
    """The real data path plus recall fixtures, parsed as one program."""
    paths = stagelint.default_paths() + [_fixture(name) for name in names]
    return stagelint.build_program(stagelint.read_sources(paths))


# -- the model is the declaration -------------------------------------------


def test_model_extracts_all_stage_anchors():
    kinds = stagelint.build_program().kinds()
    assert set(kinds) == {"pre", "proto", "post", "dma", "ctx", "nbi"}
    assert not kinds["proto"] and not kinds["nbi"]
    assert kinds["dma"] and kinds["post"]
    # What the parser read is what the classes declare.
    from repro.flextoe import stages

    for stage in (stages.PreStage, stages.ProtocolStage, stages.PostStage, stages.DmaStage, stages.CtxStage, stages.NbiStage):
        assert kinds[stage.STAGE_KIND] == stage.REPLICATED


def test_model_extracts_ordering_anchors():
    # The ordering model is the ring table the HB monitor enforces: each
    # stage kind the lint parses drains exactly one ring, in pipeline order.
    from repro.flextoe.datapath import FlexToeDatapath

    drained = [kind for kind, _producers in FlexToeDatapath.RINGS.values()]
    assert drained == ["pre", "proto", "post", "dma", "ctx", "nbi"]
    assert set(drained) == set(stagelint.build_program().kinds())


def test_model_anchor_fallback_for_subset_lints():
    # A fixture linted without the data path is judged against the same
    # declarations (imported, not parsed), but the race needs the
    # protocol stage's write of next_ts, which only the whole tree has.
    alone = stagelint.build_program(stagelint.read_sources([_fixture("hb_proto_read.py")]))
    assert alone.ownership == stagelint.partition_ownership()
    assert alone.registry == stagelint.atomic_registry()
    verdict, footprint = stagelint.field_verdicts(alone)[("proto", "next_ts")]
    assert verdict == stagelint.VERDICT_IMMUTABLE and set(footprint["reads"]) == {"dma"}
    assert stagelint.lint_hb(alone) == []


# -- hb-race ----------------------------------------------------------------


def test_baseline_tree_has_no_hb_races():
    assert stagelint.lint_hb(_with_tree()) == []


def test_field_verdicts_match_the_partition_design():
    verdicts = stagelint.field_verdicts(_with_tree())
    assert len(verdicts) == 30
    flat = {"{}.{}".format(p, a): v for (p, a), (v, _fp) in verdicts.items()}
    # The TCP machine is owned by the atomic stage...
    assert flat["proto.next_ts"] == stagelint.VERDICT_OWNED
    assert flat["proto.seq"] == stagelint.VERDICT_OWNED
    # ...identification state is control-plane-installed, read-only...
    assert flat["pre.peer_mac"] == stagelint.VERDICT_IMMUTABLE
    # ...and app-interface geometry is read by post AND dma, but written
    # by no stage: still safe.
    assert flat["post.rx_size"] == stagelint.VERDICT_IMMUTABLE
    assert stagelint.VERDICT_RACE not in flat.values()


def test_declared_counters_are_seen_and_judged_atomic():
    # Their only writes are atomic_add(post, "<field>", ...) calls: the
    # field is a string and the helper lives outside the parsed modules.
    verdicts = stagelint.field_verdicts(stagelint.build_program())
    for field in ("cnt_ackb", "cnt_ecnb", "cnt_fretx"):
        verdict, footprint = verdicts[("post", field)]
        assert verdict == stagelint.VERDICT_ATOMIC
        assert set(footprint["writes"]) == {"post"}


def test_cross_stage_proto_read_is_an_hb_race():
    # The timestamp-echo bug: a DMA replica sampling record.proto.next_ts
    # races the protocol stage's next RX update.
    findings = stagelint.lint_hb(_with_tree("hb_proto_read.py"))
    assert len(findings) == 1
    finding = findings[0]
    assert finding.code == "hb-race"
    assert finding.path.endswith("hb_proto_read.py")
    assert "proto.next_ts" in finding.message
    assert "'dma'" in finding.message and "'proto'" in finding.message


def test_findings_are_deterministically_ordered():
    def run():
        paths = stagelint.default_paths() + [_fixture("hb_proto_read.py")]
        sources = stagelint.read_sources(paths) + [(RACY_WRITERS, "racy.py")]
        return stagelint.lint_hb(stagelint.build_program(sources))

    first, second = run(), run()
    assert len(first) == 3
    assert render_json(first) == render_json(second)
    assert [f.to_dict() for f in first] == [f.to_dict() for f in second]
