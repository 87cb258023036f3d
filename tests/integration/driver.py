"""Run integration-test application processes to completion."""

from repro.faults.invariants import run_until

DRAIN_NS = 1_000_000


def run_apps(bed, apps, deadline_ns):
    """Run until every process in ``apps`` has returned, then one more
    sim-ms so trailing ACKs and teardown drain.

    ``deadline_ns`` is the wedge bound only: reaching it with an app
    still running raises ``LivenessViolation`` and fails the test.
    """
    run_until(bed, lambda: not any(app.is_alive for app in apps), deadline_ns, label="apps")
    bed.sim.run(until=bed.sim.now + DRAIN_NS)
