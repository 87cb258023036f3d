"""GRO/seqr delivery by a chain of its own.

Reorder-buffer releases that ran inline inside the offering stage were
invisible to the ownership sanitizer. The pipelined datapath hands each
buffer a :class:`~repro.nfp.fpc.Chain` (:meth:`ReorderBuffer.deliver_by`)
under ``gro``/``seqr`` tokens; these tests pin the deferred-delivery
semantics and the sanitizer visibility.
"""

import pytest

from repro.analysis import sanitizer
from repro.flextoe import ReorderBuffer, Sequencer
from repro.flextoe.config import PipelineConfig
from repro.flextoe.descriptors import SegWork, WORK_RX
from repro.flextoe.state import CONN_SLAB, ProtocolState
from repro.nfp.fpc import Chain
from repro.sim import Simulator


def make_work(seqr):
    work = SegWork(WORK_RX)
    seqr.assign(work)
    return work


def test_process_delivery_defers_to_the_delivery_process():
    sim = Simulator()
    out = []
    rob = ReorderBuffer(sim, out.append)
    rob.deliver_by(Chain(sim, "gro-deliver"))
    seqr = Sequencer()
    works = [make_work(seqr) for _ in range(4)]
    rob.offer(works[1])
    rob.offer(works[0])
    assert out == [], "delivery must not happen inline in the offering context"
    sim.run(until=1)
    assert [w.pipeline_seq for w in out] == [0, 1]
    rob.offer(works[2])
    rob.skip(works[3].pipeline_seq)
    sim.run(until=2)
    assert [w.pipeline_seq for w in out] == [0, 1, 2]
    assert rob.released == 3


def test_process_delivery_preserves_permutation_order():
    sim = Simulator()
    out = []
    rob = ReorderBuffer(sim, out.append)
    rob.deliver_by(Chain(sim, "gro-deliver"))
    seqr = Sequencer()
    works = [make_work(seqr) for _ in range(8)]
    for index in (3, 0, 5, 1, 2, 7, 4, 6):
        rob.offer(works[index])
    sim.run(until=1)
    assert [w.pipeline_seq for w in out] == list(range(8))


def test_pipelined_datapath_uses_process_delivery_rtc_does_not():
    from repro.harness import Testbed

    bed = Testbed(seed=1)
    host = bed.add_flextoe_host("full")
    dp = host.nic.datapath
    assert dp.rx_gro._chain is not None, "pipelined rx GRO must deliver by its own chain"
    assert dp.nbi_gro._chain is not None, "pipelined NBI seqr must deliver by its own chain"

    rtc = Testbed(seed=1).add_flextoe_host(
        "rtc", pipeline_config=PipelineConfig.baseline_run_to_completion()
    )
    rtc_dp = rtc.nic.datapath
    assert rtc_dp.rx_gro._chain is None, (
        "run-to-completion polls synchronously; inline delivery required"
    )


def test_gro_delivery_runs_under_gro_sanitizer_token():
    sanitizer.install()
    try:
        sim = Simulator()
        state = ProtocolState()
        CONN_SLAB.columns["active"][state.slab_slot] = True  # an installed row of flow group 0
        seen = {}

        def deliver(work):
            seen["owner"] = sanitizer.current_owner()
            # GRO only forwards the work; touching protocol state from
            # the delivery chain must trip the ownership sanitizer.
            with pytest.raises(sanitizer.SanitizerError, match="only the atomic protocol stage"):
                state.ack = 1

        rob = ReorderBuffer(sim, deliver)
        chain = Chain(sim, "gro-deliver")
        chain.wrap(lambda resume: sanitizer.guard(resume, "gro"))
        rob.deliver_by(chain)
        seqr = Sequencer()
        rob.offer(make_work(seqr))
        sim.run(until=1)
        assert seen["owner"] is not None
        assert seen["owner"][0] == "gro"
    finally:
        sanitizer.uninstall()


def test_sanitized_end_to_end_transfer_with_process_gro():
    """A full sanitized echo over the pipelined datapath: the spawned
    gro/seqr chains must not trip ownership checks."""
    sanitizer.install()
    try:
        from repro.apps import EchoServer
        from repro.apps.rpc import ClosedLoopClient
        from repro.harness import Testbed

        bed = Testbed(seed=3)
        server = bed.add_flextoe_host("server")
        client = bed.add_flextoe_host("client")
        bed.seed_all_arp()
        echo = EchoServer(server.new_context(), 7000, request_size=256)
        bed.sim.process(echo.run(), name="echo")
        rpc = ClosedLoopClient(client.new_context(), server.ip, 7000, 256, 256, warmup=1)
        proc = bed.sim.process(rpc.run(5), name="rpc")
        bed.sim.run(until=proc)
        assert rpc.histogram.count >= 4
        assert server.nic.datapath.rx_gro.released > 0
    finally:
        sanitizer.uninstall()
