"""Stage read/write-set extraction and the ownership race lint."""

import textwrap

from repro.analysis.stagelint import (
    PARTITIONS,
    atomic_registry,
    build_program,
    lint_atomicity,
    lint_stages,
    partition_ownership,
    summarize,
)


def _program(source, filename):
    return build_program([(source, filename)])


def _stage_findings(source, filename):
    return lint_stages(_program(source, filename))


GOOD_STAGE = textwrap.dedent(
    """
    class PreStage:
        STAGE_KIND = "pre"
        REPLICATED = True

        def program(self, thread):
            while True:
                work = yield self.dp.pre_in.get()
                record = self.dp.conn_table.get(work.conn_index)
                group = record.pre.flow_group
                yield self.dp.proto_rings[group].put(work)

    class ProtocolStage:
        STAGE_KIND = "proto"

        def program(self, thread):
            while True:
                work = yield self.ring.get()
                record = self.dp.conn_table.get(work.conn_index)
                state = record.proto
                state.seq += 1
                state.ack = work.seg_ack
    """
)

RACY_STAGE = textwrap.dedent(
    """
    class PreStage:
        STAGE_KIND = "pre"
        REPLICATED = True

        def program(self, thread):
            while True:
                work = yield self.dp.pre_in.get()
                record = self.dp.conn_table.get(work.conn_index)
                record.proto.seq = 0           # race: pre writes proto state
                state = record.proto
                state.ack += 1                 # race via alias
                record.pre.flow_group = 3      # pre partition is immutable

    class PostStage:
        STAGE_KIND = "post"
        REPLICATED = True

        def program(self, thread):
            while True:
                work = yield self.ring.get()
                record = self.dp.conn_table.get(work.conn_index)
                record.post.cnt_ackb += 1      # legitimate: post owns post
    """
)

RACY_MODULE = textwrap.dedent(
    """
    class CountingModule:
        def handle(self, frame, metadata, record):
            record.post.cnt_ackb += 1          # modules never touch state
            return frame
    """
)


def test_partition_ownership_parses_slots():
    ownership = partition_ownership()
    assert ownership["flow_group"] == "pre"
    assert ownership["seq"] == "proto"
    assert ownership["ack"] == "proto"
    assert ownership["cnt_ackb"] == "post"
    assert ownership["rx_region"] == "post"


def test_access_sets_track_aliases_and_partitions():
    program = _program(GOOD_STAGE, "good.py")
    pre = program["PreStage.program"]
    assert ("pre", "flow_group") in {(token, attr) for token, attr, _line in pre.reads_at}
    assert not [w for w in pre.writes if w[0] in PARTITIONS]
    assert (pre.role, pre.kind, pre.replicated) == ("stage", "pre", True)
    proto = program["ProtocolStage.program"]
    assert {("proto", "seq"), ("proto", "ack")} <= {(token, attr) for token, attr, _line, _rmw in proto.writes}
    assert (proto.role, proto.kind, proto.replicated) == ("protocol", "proto", False)
    assert proto.node.name == "program"


def test_good_stage_is_clean():
    assert _stage_findings(GOOD_STAGE, "good.py") == []


def test_racy_stage_flagged():
    findings = _stage_findings(RACY_STAGE, "racy.py")
    codes = sorted(f.code for f in findings)
    assert codes == ["stage-writes-pre", "stage-writes-proto", "stage-writes-proto"]
    # PostStage writing its own partition is not flagged.
    assert not any("PostStage" in f.message for f in findings)


def test_module_writes_flagged():
    findings = _stage_findings(RACY_MODULE, "module.py")
    assert [f.code for f in findings] == ["module-writes-state"]
    assert "one-shot" in findings[0].message


def test_unknown_attribute_flagged():
    source = textwrap.dedent(
        """
        class ProtocolStage:
            STAGE_KIND = "proto"

            def program(self, thread):
                record.proto.not_a_slot = 1
                yield None
        """
    )
    findings = _stage_findings(source, "typo.py")
    assert [f.code for f in findings] == ["unknown-state-attr"]


def test_state_parameter_convention_is_protocol_owned():
    # A parameter named ``state`` is the connection's ProtocolState;
    # writes through it from a non-protocol stage are races.
    source = textwrap.dedent(
        """
        class DmaStage:
            STAGE_KIND = "dma"
            REPLICATED = True

            def _process(self, thread, work, state):
                state.next_ts = 0
                yield None
        """
    )
    findings = _stage_findings(source, "dma.py")
    assert [f.code for f in findings] == ["stage-writes-proto"]


DECLARED_NOT_NAMED = textwrap.dedent(
    """
    class Steer:
        STAGE_KIND = "pre"
        REPLICATED = True

        def program(self, thread):
            record = self.dp.conn_table.get(0)
            record.proto.seq = 0
            record.post.rtt_est = (7 * record.post.rtt_est + 10) // 8
            yield None

    class FooStage:
        def bump(self, record):
            record.proto.seq = 0
            record.post.rtt_est += 1
    """
)


def test_identity_is_the_anchor_not_the_class_name():
    # ``Steer`` is named like nothing but declares a replicated pre
    # stage: both passes judge it. ``FooStage`` is named like a stage
    # and declares nothing: a helper, judged only where a stage calls it.
    program = _program(DECLARED_NOT_NAMED, "steer.py")
    assert program["Steer.program"].role == "stage"
    assert program["FooStage.bump"].role == "helper"
    findings = lint_stages(program) + lint_atomicity(program)
    assert [(f.code, f.line) for f in findings] == [
        ("stage-writes-proto", 8),
        ("stage-writes-post", 9),
        ("replicated-unatomic-rmw", 9),
    ]
    assert all("Steer.program" in f.message for f in findings)


def test_real_data_path_is_clean():
    assert lint_stages(build_program()) == []


# -- interprocedural summaries ------------------------------------------------

# A statecache-style writeback reached through two call levels: the
# stage calls the cache object's flush, which calls a module-level
# delivery helper that performs the store through its parameter.
HELPER_CHAIN = textwrap.dedent(
    """
    def seqr_deliver(proto, position):
        proto.rx_pos = position

    class StateCache:
        def flush(self, record):
            seqr_deliver(record.proto, 0)

    class DmaStage:
        STAGE_KIND = "dma"
        REPLICATED = True

        def _process(self, thread, work):
            record = self.dp.conn_table.get(work.conn_index)
            self.cache.flush(record)
            yield None
    """
)


def test_helper_writeback_attributed_to_calling_stage():
    findings = _stage_findings(HELPER_CHAIN, "chain.py")
    assert [f.code for f in findings] == ["stage-writes-proto"]
    finding = findings[0]
    # Anchored at the store inside the helper, attributed to the stage.
    assert "DmaStage._process" in finding.message
    assert finding.via == ("DmaStage._process", "StateCache.flush", "seqr_deliver")
    assert finding.line == 3  # the proto.rx_pos store


def test_same_helpers_called_by_protocol_stage_are_legal():
    # Same class name, same helpers: the anchor is what makes it the owner.
    source = HELPER_CHAIN.replace('STAGE_KIND = "dma"', 'STAGE_KIND = "proto"')
    assert source != HELPER_CHAIN
    assert _stage_findings(source, "chain.py") == []


def test_recursive_helpers_do_not_diverge():
    source = textwrap.dedent(
        """
        def ping(record, depth):
            pong(record, depth)

        def pong(record, depth):
            ping(record, depth)
            record.proto.seq = 0

        class PreStage:
            STAGE_KIND = "pre"
            REPLICATED = True

            def program(self, thread):
                record = self.dp.conn_table.get(0)
                ping(record, 1)
                yield None
        """
    )
    findings = _stage_findings(source, "cycle.py")
    assert [f.code for f in findings] == ["stage-writes-proto"]
    assert findings[0].via[0] == "PreStage.program"


def test_summaries_substitute_parameter_bindings():
    program = _program(HELPER_CHAIN, "chain.py")
    summaries, cycles = summarize(program)
    assert not cycles
    entries = summaries["DmaStage._process"]
    assert any(
        token == "proto" and attr == "rx_pos" and chain[-1] == "seqr_deliver"
        for token, attr, _line, _file, _rmw, chain in entries
    )


def test_direct_violation_not_duplicated_through_callers():
    # The helper's store is illegal for *every* data-path caller only
    # when the helper itself is a stage; here the write is flagged once
    # at the module (direct) and not re-reported via the caller.
    source = textwrap.dedent(
        """
        class CountingModule:
            def handle(self, frame, metadata, record):
                self._bump(record)
                return frame

            def _bump(self, record):
                record.post.cnt_ackb += 1
        """
    )
    findings = _stage_findings(source, "module.py")
    # One finding: the direct one at _bump (itself module code); the
    # summary-attributed copy via handle is suppressed as a duplicate.
    assert [f.code for f in findings] == ["module-writes-state"]
    assert findings[0].via == ()
    assert "CountingModule._bump" in findings[0].message


# -- atomicity of replicated-state writes -------------------------------------


def test_atomic_registry_parses_declarations():
    registry = atomic_registry()
    assert registry == {
        "cnt_ackb": "post",
        "cnt_ecnb": "post",
        "cnt_fretx": "post",
    }


ATOMIC_MATRIX = textwrap.dedent(
    """
    class PostStage:
        STAGE_KIND = "post"
        REPLICATED = True

        def _process(self, thread, work):
            record = self.dp.conn_table.get(work.conn_index)
            post = record.post
            post.cnt_ackb += 128            # declared counter: accepted
            post.cnt_ecnb = post.cnt_ecnb + 64  # declared, RMW spelled out: accepted
            post.rate = 5                   # plain store, not an RMW: accepted
            post.rtt_est = (7 * post.rtt_est + 10) // 8  # undeclared RMW: flagged
            self._bump(post)
            yield None

        def _bump(self, post):
            post.cnt_fretx += 1             # declared, via helper: accepted
            post.opaque += 1                # undeclared RMW via helper: flagged
    """
)


def test_atomicity_accept_reject_matrix():
    findings = lint_atomicity(_program(ATOMIC_MATRIX, "post.py"))
    assert [f.code for f in findings] == [
        "replicated-unatomic-rmw",
        "replicated-unatomic-rmw",
    ]
    attrs = {f.message.split("post.")[1].split(" ")[0] for f in findings}
    assert attrs == {"rtt_est", "opaque"}
    helper_finding = next(f for f in findings if "opaque" in f.message)
    assert helper_finding.via == ("PostStage._process", "PostStage._bump")


def test_atomic_add_on_undeclared_field_flagged():
    source = textwrap.dedent(
        """
        class PostStage:
            STAGE_KIND = "post"
            REPLICATED = True

            def _process(self, thread, work):
                record = self.dp.conn_table.get(work.conn_index)
                atomic_add(record.post, "rtt_est", 1)
                yield None
        """
    )
    findings = lint_atomicity(_program(source, "post.py"))
    assert [f.code for f in findings] == ["atomic-undeclared-add"]


def test_atomic_add_through_a_helper_is_judged_at_the_replicated_caller():
    source = textwrap.dedent(
        """
        class PostStage:
            STAGE_KIND = "post"
            REPLICATED = True

            def _process(self, thread, work):
                record = self.dp.conn_table.get(work.conn_index)
                self._count(record.post)
                yield None

            def _count(self, post):
                atomic_add(post, "cnt_ackb", 1)  # declared: accepted
                atomic_add(post, "opaque", 1)    # undeclared: flagged
        """
    )
    findings = lint_atomicity(_program(source, "post.py"))
    assert [(f.code, f.via) for f in findings] == [
        ("atomic-undeclared-add", ("PostStage._process", "PostStage._count"))
    ]
    assert "PostStage._count calls atomic_add on 'opaque'" in findings[0].message


def test_serialized_protocol_stage_rmw_not_flagged():
    # The protocol stage is serialized per flow group; its RMWs on its
    # own partition are not replication races.
    source = textwrap.dedent(
        """
        class ProtocolStage:
            STAGE_KIND = "proto"
            REPLICATED = False

            def _process(self, thread, work, state):
                state.seq += 1
                yield None
        """
    )
    assert lint_atomicity(_program(source, "proto.py")) == []


def test_real_data_path_atomicity_is_clean():
    assert lint_atomicity(build_program()) == []
