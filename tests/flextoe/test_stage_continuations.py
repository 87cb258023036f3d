"""The data-path programs as Step chains push what their generator
processes pushed (DESIGN §4, §12 rule 3): every entry dispatched — its
time, priority and key — in the same order, the same count of events, the
same bytes delivered and the same counters. The reference is those
processes (``tests/flextoe/generator_stages.py``), run in the same data
path. Random echo traffic runs over both execution structures (Table 3's
pipeline and run to completion), with and without a crash of the server's
NIC mid-run, from which the control plane recovers by reboot."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer
from repro.faults.plans import nic_crash_plan
from repro.flextoe import nic
from repro.flextoe.config import PipelineConfig
from repro.harness import Testbed
from tests.flextoe import generator_stages
from tests.tools.judge import KernelHooks

STRUCTURES = {
    "pipelined": PipelineConfig.full,
    "run-to-completion": PipelineConfig.baseline_run_to_completion,
}
HORIZON_NS = 3_000_000


def counters(host):
    dp = host.nic.datapath
    fpcs = [fpc for kind in sorted(dp.stage_fpcs) for fpc in dp.stage_fpcs[kind]]
    return (
        dp.crashed,
        host.nic.reboots,
        dict(dp.stats),
        [fpc.busy_cycles for fpc in fpcs],
        [dict(stage.processed) for stage in dp.protocol_stages],
        [stage.acks_built for stage in dp.post_stages],
        dp.nbi_stage.transmitted,
        dp.scheduler.triggers_issued,
        (dp.rx_gro.released, dp.nbi_gro.released, dp.nbi_seqr.issued),
    )


def transcript(oracle, structure, sizes, crash_ns):
    """One run: ``(dispatched (time, priority, key) list, events, now,
    delivered, counters)``, with the generator programs if ``oracle``."""
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(nic, "FlexToeDatapath", generator_stages.Datapath)
        bed = Testbed(seed=len(sizes))
        server = bed.add_flextoe_host("server", pipeline_config=STRUCTURES[structure]())
        client = bed.add_flextoe_host("client")
        bed.seed_all_arp()
        if crash_ns is not None:
            nic_crash_plan(crash_ns=crash_ns).install(bed)
        delivered = []

        def server_app(ctx):
            sock = yield from ctx.accept(ctx.listen(7000))
            while True:
                data = yield from ctx.recv(sock, 4096)
                if not data:
                    return
                yield from ctx.send(sock, data)

        def client_app(ctx):
            sock = yield from ctx.connect(server.ip, 7000)
            for index, size in enumerate(sizes):
                yield from ctx.send(sock, bytes([index % 251]) * size)
                got = 0
                while got < size:
                    data = yield from ctx.recv(sock, size - got)
                    got += len(data)
                delivered.append((bed.sim.now, got))

        bed.sim.process(server_app(server.new_context()), name="server-app")
        bed.sim.process(client_app(client.new_context()), name="client-app")
        dispatched = []

        def record(entry):
            dispatched.append(entry[:3])
            return entry

        with KernelHooks(heappop=lambda pop, heap: record(pop(heap)),
                         popleft=lambda popleft, queue: record(popleft(queue))):
            bed.sim.run(until=HORIZON_NS)
        return dispatched, bed.sim.processed_events, bed.sim.now, delivered, counters(server), counters(client)


@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(sorted(STRUCTURES)),
    st.lists(st.integers(min_value=1, max_value=6000), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(min_value=5_000, max_value=100_000)),
)
# A crash mid-transfer in each structure: the rebooted NIC's chains finish it.
@example("pipelined", [3000, 64, 2500], 15_000)
@example("run-to-completion", [1500, 900], 25_000)
# The crash kills the worker holding the serial lock, two ctx threads
# queued on it: the kill releases the grant (the process's ``finally``).
@example("run-to-completion", [1500, 900], 13_000)
def test_chains_dispatch_what_their_processes_dispatched(structure, sizes, crash_ns):
    if sanitizer.maybe_install_from_env():
        pytest.skip("the sanitizer checks the kernel's pop by its frame, which the transcript hooks")
    reference = transcript(True, structure, sizes, crash_ns)
    observed = transcript(False, structure, sizes, crash_ns)
    assert reference[1:] == observed[1:]
    assert reference[0] == observed[0]
    assert reference[3], "the traffic delivered nothing: the transcripts compare an idle run"
