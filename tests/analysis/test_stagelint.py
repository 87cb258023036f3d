"""Stage read/write-set extraction and the ownership race lint."""

import textwrap

from repro.analysis.stagelint import (
    atomic_registry,
    build_program,
    extract_access_sets,
    lint_atomicity,
    lint_atomicity_program,
    lint_program,
    lint_source,
    lint_stages,
    partition_ownership,
    summarize,
)

GOOD_STAGE = textwrap.dedent(
    """
    class PreStage:
        def program(self, thread):
            while True:
                work = yield self.dp.pre_in.get()
                record = self.dp.conn_table.get(work.conn_index)
                group = record.pre.flow_group
                yield self.dp.proto_rings[group].put(work)

    class ProtocolStage:
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
        def program(self, thread):
            while True:
                work = yield self.dp.pre_in.get()
                record = self.dp.conn_table.get(work.conn_index)
                record.proto.seq = 0           # race: pre writes proto state
                state = record.proto
                state.ack += 1                 # race via alias
                record.pre.flow_group = 3      # pre partition is immutable

    class PostStage:
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
    access = extract_access_sets(GOOD_STAGE, "good.py")
    pre = access["PreStage.program"]
    assert "pre.flow_group" in pre["reads"]
    assert pre["writes"] == set()
    proto = access["ProtocolStage.program"]
    assert {"proto.seq", "proto.ack"} <= proto["writes"]
    assert proto["role"] == "protocol"


def test_good_stage_is_clean():
    _, findings = lint_source(GOOD_STAGE, "good.py")
    assert findings == []


def test_racy_stage_flagged():
    _, findings = lint_source(RACY_STAGE, "racy.py")
    codes = sorted(f.code for f in findings)
    assert codes == ["stage-writes-pre", "stage-writes-proto", "stage-writes-proto"]
    # PostStage writing its own partition is not flagged.
    assert not any("PostStage" in f.message for f in findings)


def test_module_writes_flagged():
    _, findings = lint_source(RACY_MODULE, "module.py")
    assert [f.code for f in findings] == ["module-writes-state"]
    assert "one-shot" in findings[0].message


def test_unknown_attribute_flagged():
    source = textwrap.dedent(
        """
        class ProtocolStage:
            def program(self, thread):
                record.proto.not_a_slot = 1
                yield None
        """
    )
    _, findings = lint_source(source, "typo.py")
    assert [f.code for f in findings] == ["unknown-state-attr"]


def test_state_parameter_convention_is_protocol_owned():
    # A parameter named ``state`` is the connection's ProtocolState;
    # writes through it from a non-protocol stage are races.
    source = textwrap.dedent(
        """
        class DmaStage:
            def _process(self, thread, work, state):
                state.next_ts = 0
                yield None
        """
    )
    _, findings = lint_source(source, "dma.py")
    assert [f.code for f in findings] == ["stage-writes-proto"]


def test_real_data_path_is_clean():
    assert lint_stages() == []


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
        def _process(self, thread, work):
            record = self.dp.conn_table.get(work.conn_index)
            self.cache.flush(record)
            yield None
    """
)


def test_helper_writeback_attributed_to_calling_stage():
    _, findings = lint_source(HELPER_CHAIN, "chain.py")
    assert [f.code for f in findings] == ["stage-writes-proto"]
    finding = findings[0]
    # Anchored at the store inside the helper, attributed to the stage.
    assert "DmaStage._process" in finding.message
    assert finding.via == ("DmaStage._process", "StateCache.flush", "seqr_deliver")
    assert finding.line == 3  # the proto.rx_pos store


def test_same_helpers_called_by_protocol_stage_are_legal():
    source = HELPER_CHAIN.replace(
        "class DmaStage:", "class ProtocolStage:"
    )
    _, findings = lint_source(source, "chain.py")
    assert findings == []


def test_recursive_helpers_do_not_diverge():
    source = textwrap.dedent(
        """
        def ping(record, depth):
            pong(record, depth)

        def pong(record, depth):
            ping(record, depth)
            record.proto.seq = 0

        class PreStage:
            def program(self, thread):
                record = self.dp.conn_table.get(0)
                ping(record, 1)
                yield None
        """
    )
    _, findings = lint_source(source, "cycle.py")
    assert [f.code for f in findings] == ["stage-writes-proto"]
    assert findings[0].via[0] == "PreStage.program"


def test_summaries_substitute_parameter_bindings():
    program = build_program([(HELPER_CHAIN, "chain.py")], partition_ownership())
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
    _, findings = lint_source(source, "module.py")
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
    ownership = partition_ownership()
    program = build_program([(ATOMIC_MATRIX, "post.py")], ownership)
    findings = lint_atomicity_program(program, ownership, atomic_registry())
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
            def _process(self, thread, work):
                record = self.dp.conn_table.get(work.conn_index)
                atomic_add(record.post, "rtt_est", 1)
                yield None
        """
    )
    ownership = partition_ownership()
    program = build_program([(source, "post.py")], ownership)
    findings = lint_atomicity_program(program, ownership, atomic_registry())
    assert [f.code for f in findings] == ["atomic-undeclared-add"]


def test_serialized_protocol_stage_rmw_not_flagged():
    # The protocol stage is serialized per flow group; its RMWs on its
    # own partition are not replication races.
    source = textwrap.dedent(
        """
        class ProtocolStage:
            def _process(self, thread, work, state):
                state.seq += 1
                yield None
        """
    )
    ownership = partition_ownership()
    program = build_program([(source, "proto.py")], ownership)
    assert lint_atomicity_program(program, ownership, atomic_registry()) == []


def test_real_data_path_atomicity_is_clean():
    assert lint_atomicity() == []
