"""Run integration-test application processes to completion."""

from repro.faults.invariants import run_until
from repro.harness.testbed import FlexToeHost

DRAIN_NS = 1_000_000


def run_apps(bed, apps, deadline_ns):
    """Run until every process in ``apps`` has returned, then one more
    sim-ms so trailing ACKs and teardown drain — and check they did.

    ``deadline_ns`` is the wedge bound only: reaching it with an app
    still running raises ``LivenessViolation`` and fails the test.
    """
    run_until(bed, lambda: not any(app.is_alive for app in apps), deadline_ns, label="apps")
    bed.sim.run(until=bed.sim.now + DRAIN_NS)
    assert_drained(bed)


def assert_drained(bed):
    """A drained pipeline holds nothing: every work that entered a
    FlexTOE data path has left it, through the end or through
    ``retire``, and gave back what it held on the way."""
    for name, host in bed.hosts.items():
        if not isinstance(host, FlexToeHost):
            continue
        dp = host.nic.datapath
        held = {
            "ctm_pool.in_use": dp.ctm_pool.in_use,
            "descriptor_pool.in_use": dp.descriptor_pool.in_use,
            "rx_gro.buffered": dp.rx_gro.buffered,
            "rx tickets outstanding": dp.rx_seqr.issued - dp.rx_gro.expected,
            "nbi_gro.buffered": dp.nbi_gro.buffered,
            "nbi tickets outstanding": dp.nbi_seqr.issued - dp.nbi_gro.expected,
            "post_fence": len(dp.post_fence),
            "dma_rx_fence": len(dp.dma_rx_fence),
            "arx_fence": len(dp.ctx_stage.arx_fence),
        }
        if dp.hb_monitor is not None:  # REPRO_SANITIZE
            held["hb_monitor"] = dp.hb_monitor.outstanding()
        leaked = {what: count for what, count in held.items() if count}
        assert not leaked, "{}: pipeline not drained: {}".format(name, leaked)
