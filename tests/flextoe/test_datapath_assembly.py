"""Data-path assembly: FPC layout per configuration (paper Fig. 8),
connection install/remove, and the NIC facade."""

import pytest

from repro.flextoe import FlexToeNic
from repro.flextoe.config import PipelineConfig
from repro.host.memory import HugepagePool
from repro.libtoe.buffers import CircularBuffer
from repro.sim import Simulator


def make_nic(config=None):
    return FlexToeNic(Simulator(), config=config or PipelineConfig.full(), local_mac=0xAA, local_ip=0x0A000001)


def test_full_config_fpc_layout():
    nic = make_nic()
    chip = nic.chip
    # 4 protocol islands x (1 proto + 4 pre + 4 post) = 36 FPCs,
    # service island: 4 DMA + NBI + CTX + SCH = 7. 60 - 43 = 17 free.
    assert chip.total_fpcs() - chip.free_fpcs() == 43
    # Each protocol island retains >= 3 free FPCs for extension modules.
    for island in chip.islands[:4]:
        assert island.free_fpcs >= 3
    dp = nic.datapath
    assert len(dp.protocol_stages) == 4
    assert len(dp.pre_stages) == 16
    assert len(dp.post_stages) == 16
    assert dp.serial_lock is None


def test_single_flow_group_layout():
    nic = make_nic(PipelineConfig.with_intra_fpc_parallelism())
    dp = nic.datapath
    assert len(dp.protocol_stages) == 1
    assert len(dp.pre_stages) == 1
    assert len(dp.post_stages) == 1


def test_run_to_completion_layout():
    nic = make_nic(PipelineConfig.baseline_run_to_completion())
    dp = nic.datapath
    assert dp.serial_lock is not None
    assert len(dp.protocol_stages) == 1
    # Everything fits in one island plus nothing else claimed.
    assert nic.chip.islands[0].free_fpcs == 12 - 4


def test_run_to_completion_needs_one_flow_group():
    # The form config.py's docstring advertises kept the default four
    # flow groups, but the one worker drains only group 0's ring: three
    # connections in four were silently black-holed.
    with pytest.raises(ValueError, match="n_flow_groups=1"):
        PipelineConfig(pipelined=False)
    assert not PipelineConfig(pipelined=False, n_flow_groups=1).pipelined


def _group(group, replicas, threads):
    """One protocol island's spawn order: proto, pre replicas, post replicas."""
    names = ["proto-g%d" % group]
    names += ["pre-g%d-r%d" % (group, r) for r in range(replicas)]
    names += ["post-g%d-r%d" % (group, r) for r in range(replicas)]
    return [(name, threads) for name in names]


GRO = [("rx-gro-deliver", 1), ("nbi-gro-deliver", 1)]
#: Ladder row -> (spawned process names in spawn order, run-length
#: encoded; FPCs per stage kind). Captured at the commit before assembly
#: became one routine: spawn order fixes event sequence numbers, so it is
#: behaviour.
LADDER = {
    "baseline_run_to_completion": (
        [("run-to-completion", 1), ("nbi", 1), ("ctx-atx", 1), ("ctx-arx", 1), ("sch", 1)],
        {"proto": 1, "nbi": 1, "ctx": 1, "sch": 1},
    ),
    "pipelined_single_thread": (
        GRO + _group(0, 1, 1) + [("dma-r0", 1), ("nbi", 1), ("ctx-atx", 1), ("ctx-arx", 1), ("sch", 1)],
        {"proto": 1, "pre": 1, "post": 1, "dma": 1, "nbi": 1, "ctx": 1, "sch": 1},
    ),
    "with_intra_fpc_parallelism": (
        GRO + _group(0, 1, 8) + [("dma-r0", 8), ("nbi", 4), ("ctx-atx", 1), ("ctx-arx", 7), ("sch", 1)],
        {"proto": 1, "pre": 1, "post": 1, "dma": 1, "nbi": 1, "ctx": 1, "sch": 1},
    ),
    "with_replicated_pre_post": (
        GRO + _group(0, 4, 8) + [("dma-r0", 8), ("dma-r1", 8), ("nbi", 4), ("ctx-atx", 1), ("ctx-arx", 7), ("sch", 1)],
        {"proto": 1, "pre": 4, "post": 4, "dma": 2, "nbi": 1, "ctx": 1, "sch": 1},
    ),
    "full": (
        GRO
        + [run for group in range(4) for run in _group(group, 4, 8)]
        + [("dma-r%d" % r, 8) for r in range(4)]
        + [("nbi", 4), ("ctx-atx", 1), ("ctx-arx", 7), ("sch", 1)],
        {"proto": 4, "pre": 16, "post": 16, "dma": 4, "nbi": 1, "ctx": 1, "sch": 1},
    ),
}


@pytest.mark.parametrize("row", sorted(LADDER))
def test_assembly_follows_the_declaration(row):
    from repro.flextoe.datapath import FlexToeDatapath

    names, fpcs = LADDER[row]
    dp = make_nic(getattr(PipelineConfig, row)()).datapath
    assert [chain.name for chain in dp.chains] == [name for name, count in names for _ in range(count)]
    assert {kind: len(claimed) for kind, claimed in dp.stage_fpcs.items()} == fpcs
    # Every declared ring exists, and every stage kind that runs is one
    # the ring table (or the scheduler's anchor) declares.
    kinds = {consumer for consumer, _producers in FlexToeDatapath.RINGS.values()}
    for attr, (consumer, producers) in FlexToeDatapath.RINGS.items():
        assert dp.rings(attr) and all(hasattr(ring, "try_get") for ring in dp.rings(attr))
        assert set(producers) <= kinds | {"sch", "gro", "seqr"}
    assert set(dp.stage_fpcs) <= kinds | {"sch"}


def test_agilio_lx_has_headroom():
    from repro.nfp import Nfp4000, NfpConfig

    sim = Simulator()
    nic = FlexToeNic(sim, chip=Nfp4000(sim, NfpConfig.agilio_lx()))
    assert nic.chip.free_fpcs() >= 70  # LX doubles the islands


def _buffers():
    pool = HugepagePool(n_pages=1)
    rx = CircularBuffer(pool.alloc(4096))
    tx = CircularBuffer(pool.alloc(4096))
    return rx.as_triple(), tx.as_triple()


def offload(nic, index=None, port=5000):
    index = index if index is not None else nic.allocate_connection_index()
    rx, tx = _buffers()
    nic.offload_connection(
        index=index,
        four_tuple=(0x0A000001, 0x0A000002, port, 6000),
        peer_mac=0xBB,
        iss=1000,
        irs=2000,
        context_id=1,
        opaque=index,
        rx_buffer=rx,
        tx_buffer=tx,
    )
    return nic.connection(index)


def test_offload_installs_lookup_and_state():
    nic = make_nic()
    record = offload(nic)
    found, index, _ = nic.datapath.lookup_engine.lookup(record.four_tuple)
    assert found and index == record.index
    assert nic.connection(record.index) is record
    assert record.proto.seq == 1000
    assert record.proto.ack == 2000
    assert record.pre.flow_group == nic.config.flow_group_of(record.four_tuple)


def test_remove_connection_cleans_everything():
    nic = make_nic()
    record = offload(nic)
    nic.set_flow_rate(record.index, 1_000_000)
    removed = nic.remove_connection(record.index)
    assert removed is record
    assert not record.active
    found, _, _ = nic.datapath.lookup_engine.lookup(record.four_tuple)
    assert not found
    assert nic.connection(record.index) is None
    assert record.index not in nic.scheduler._flows


def test_connection_index_reuse():
    nic = make_nic()
    record = offload(nic)
    first_index = record.index
    nic.remove_connection(first_index)
    assert nic.allocate_connection_index() == first_index


def test_duplicate_index_rejected():
    nic = make_nic()
    record = offload(nic, index=7)
    with pytest.raises(ValueError):
        offload(nic, index=7, port=5001)


def test_cc_stats_read_and_reset():
    nic = make_nic()
    record = offload(nic)
    record.post.cnt_ackb = 1000
    record.post.cnt_ecnb = 100
    record.post.cnt_fretx = 2
    record.post.rtt_est = 55
    stats = nic.read_cc_stats(record.index)
    assert stats == (1000, 100, 2, 55)
    assert nic.read_cc_stats(record.index) == (0, 0, 0, 55)
    assert nic.read_cc_stats(9999) is None


def test_rtt_samples_aggregated_across_post_replicas():
    # Replicated post stages accumulate RTT samples privately; the
    # cc-stats poll drains every replica and folds the batch mean into
    # the EWMA at one site (rtt_est starts at 0, so the first fold sets
    # it to the mean outright).
    nic = make_nic()
    record = offload(nic)
    dp = nic.datapath
    group = record.pre.flow_group
    replicas = [s for s in dp.post_stages if s.flow_group == group][:2]
    assert len(replicas) == 2
    replicas[0].rtt_samples[record.index] = (120, 2)  # two samples of 60
    replicas[1].rtt_samples[record.index] = (40, 1)  # one sample of 40
    stats = nic.read_cc_stats(record.index)
    assert stats[3] == (120 + 40) // 3
    # Accumulators drained; a second poll folds nothing new.
    assert replicas[0].rtt_samples == {}
    assert nic.read_cc_stats(record.index)[3] == stats[3]


def test_rtt_fold_is_ewma_after_first_estimate():
    nic = make_nic()
    record = offload(nic)
    record.post.rtt_est = 80
    nic.datapath.post_stages[0].rtt_samples[record.index] = (160, 2)
    # flow_group of post_stages[0] may differ from the record's; drain
    # still sums every replica for this connection index.
    assert nic.read_cc_stats(record.index)[3] == (7 * 80 + 80) // 8


def test_remove_connection_drops_rtt_accumulators():
    nic = make_nic()
    record = offload(nic)
    nic.datapath.post_stages[0].rtt_samples[record.index] = (500, 1)
    nic.remove_connection(record.index)
    assert nic.datapath.post_stages[0].rtt_samples == {}


def test_atomic_add_charges_engine_latency_and_saturates():
    from repro.flextoe.state import atomic_add, atomic_fields
    from repro.nfp.memory import LAT_ATOMIC_ADD

    nic = make_nic()
    record = offload(nic)
    assert atomic_fields() == {
        "cnt_ackb": "post",
        "cnt_ecnb": "post",
        "cnt_fretx": "post",
    }
    assert atomic_add(record.post, "cnt_ackb", 1460) == LAT_ATOMIC_ADD
    assert record.post.cnt_ackb == 1460
    record.post.cnt_fretx = 254
    atomic_add(record.post, "cnt_fretx", 1, maximum=255)
    atomic_add(record.post, "cnt_fretx", 1, maximum=255)
    assert record.post.cnt_fretx == 255
    with pytest.raises(ValueError, match="not declared"):
        atomic_add(record.post, "rtt_est", 1)


def test_state_partition_sizes_match_table5():
    from repro.flextoe.state import (
        PostprocState,
        PreprocState,
        ProtocolState,
        TOTAL_STATE_BYTES,
    )

    assert PreprocState.SIZE_BYTES == 15
    assert ProtocolState.SIZE_BYTES == 43
    assert PostprocState.SIZE_BYTES == 51
    # The paper reports 108 B aggregate; its partition sizes sum to 109
    # (flow_group is 2 bits, rounded into the 15 B pre-processor part).
    assert TOTAL_STATE_BYTES in (108, 109)
