"""Stage read/write-set extraction and the hb-race ownership rule."""

import textwrap

from repro.analysis.stagelint import (
    PARTITIONS,
    atomic_registry,
    build_program,
    lint_hb,
    partition_ownership,
)


def _program(source, filename):
    return build_program([(source, filename)])


def _stage_findings(source, filename):
    return lint_hb(_program(source, filename))


def _fields(findings):
    """The ``partition.field`` each finding names, in report order."""
    return [f.message.split(" writes ")[-1].split(" reads ")[-1].split()[0] for f in findings]


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
                record.post.cnt_ackb += 1      # legitimate: a declared atomic() counter
    """
)

RACY_MODULE = textwrap.dedent(
    """
    class CountingModule:
        def handle(self, frame, metadata, record):
            record.post.rtt_est += 1           # modules never touch state
            return frame

    class PreStage:
        STAGE_KIND = "pre"
        REPLICATED = True

        def _admit(self, thread, work):
            action = self.dp.ingress_modules.handle(work.frame, work, work.record)
            yield None
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
    assert (pre.kind, pre.replicated) == ("pre", True)
    proto = program["ProtocolStage.program"]
    assert {("proto", "seq"), ("proto", "ack")} <= {(token, attr) for token, attr, _line in proto.writes}
    assert (proto.kind, proto.replicated) == ("proto", False)
    assert program.kinds() == {"pre": True, "proto": False}


def test_good_stage_is_clean():
    assert _stage_findings(GOOD_STAGE, "good.py") == []


def test_racy_stage_flagged():
    findings = _stage_findings(RACY_STAGE, "racy.py")
    assert {f.code for f in findings} == {"hb-race"}
    # The replicated pre kind writes its own partition (no stage writes
    # pre) and the protocol stage's, directly and through an alias.
    assert _fields(findings) == ["proto.seq", "proto.ack", "pre.flow_group"]
    # PostStage updating a declared atomic() counter is not flagged.
    assert not any("PostStage" in f.message for f in findings)


def test_module_writes_flagged():
    # A module is no stage: its write is judged at the stage that runs it.
    findings = _stage_findings(RACY_MODULE, "module.py")
    assert _fields(findings) == ["post.rtt_est"]
    assert findings[0].via == ("PreStage._admit", "CountingModule.handle")
    assert "for stage 'pre'" in findings[0].message


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
    assert _fields(findings) == ["proto.next_ts"]


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
    # stage: the lint judges it. ``FooStage`` is named like a stage and
    # declares nothing: a helper, judged only where a stage calls it.
    program = _program(DECLARED_NOT_NAMED, "steer.py")
    assert program["Steer.program"].kind == "pre"
    assert program["FooStage.bump"].kind is None
    findings = lint_hb(program)
    assert [(f.line, field) for f, field in zip(findings, _fields(findings))] == [
        (8, "proto.seq"),
        (9, "post.rtt_est"),
    ]
    assert all("Steer.program" in f.message for f in findings)


def test_real_data_path_is_clean():
    assert lint_hb(build_program()) == []


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
    assert _fields(findings) == ["proto.rx_pos"]
    finding = findings[0]
    # Anchored at the store inside the helper, attributed to the stage.
    assert "for stage 'dma'" in finding.message
    assert finding.via == ("DmaStage._process", "StateCache.flush", "seqr_deliver")
    assert finding.line == 3  # the proto.rx_pos store


def test_same_helpers_called_by_protocol_stage_are_legal():
    # Same class name, same helpers: the anchors make it the owner.
    source = HELPER_CHAIN.replace('STAGE_KIND = "dma"', 'STAGE_KIND = "proto"')
    source = source.replace("REPLICATED = True", "REPLICATED = False")
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
    assert _fields(findings) == ["proto.seq"]
    assert findings[0].via[0] == "PreStage.program"


def test_summaries_substitute_parameter_bindings():
    program = _program(HELPER_CHAIN, "chain.py")
    summaries, cycles = program.summaries("writes")
    assert not cycles
    entries = summaries["DmaStage._process"]
    assert any(
        token == "proto" and attr == "rx_pos" and chain[-1] == "seqr_deliver"
        for token, attr, _line, _file, chain in entries
    )


def test_direct_violation_not_duplicated_through_callers():
    # A field is judged once: a stage that writes it directly and through
    # a helper is reported at its direct write (the shortest chain), not
    # again for every caller that reaches the helper.
    source = textwrap.dedent(
        """
        class DmaStage:
            STAGE_KIND = "dma"
            REPLICATED = True

            def program(self, thread):
                record = self.dp.conn_table.get(0)
                self._bump(record)
                self._stamp(record)
                yield None

            def _stamp(self, record):
                self._bump(record)

            def _bump(self, record):
                record.proto.next_ts = 0
        """
    )
    findings = _stage_findings(source, "dma.py")
    assert _fields(findings) == ["proto.next_ts"]
    assert findings[0].via == ()
    assert "DmaStage._bump writes" in findings[0].message


# -- replicas share a partition: writes by a REPLICATED kind -------------------


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
            post.rate = 5                   # plain store by replicas: flagged
            post.rtt_est = (7 * post.rtt_est + 10) // 8  # undeclared RMW: flagged
            self._bump(post)
            yield None

        def _bump(self, post):
            post.cnt_fretx += 1             # declared, via helper: accepted
            post.opaque += 1                # undeclared RMW via helper: flagged
    """
)


def test_atomicity_accept_reject_matrix():
    findings = lint_hb(_program(ATOMIC_MATRIX, "post.py"))
    assert {f.code for f in findings} == {"hb-race"}
    assert set(_fields(findings)) == {"post.rate", "post.rtt_est", "post.opaque"}
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
    findings = lint_hb(_program(source, "post.py"))
    assert _fields(findings) == ["post.rtt_est"]


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
    findings = lint_hb(_program(source, "post.py"))
    assert [(field, f.via) for f, field in zip(findings, _fields(findings))] == [
        ("post.opaque", ("PostStage._process", "PostStage._count"))
    ]
    assert "PostStage._count writes post.opaque" in findings[0].message


def test_serialized_protocol_stage_rmw_not_flagged():
    # The protocol stage is serialized per flow group; its RMWs on its
    # own partition are owned, not replication races.
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
    assert lint_hb(_program(source, "proto.py")) == []


def test_real_data_path_atomicity_is_clean():
    # Every field a replicated kind writes in the real data path is a
    # declared atomic() counter of that kind's partition.
    program = build_program()
    kinds = program.kinds()
    summaries, _cycles = program.summaries("writes")
    written = {
        (token, attr)
        for qualname, info in program.items()
        if info.kind is not None and kinds[info.kind]
        for token, attr, _line, _file, _chain in summaries[qualname]
        if token in PARTITIONS
    }
    assert written == {("post", field) for field in atomic_registry()}
