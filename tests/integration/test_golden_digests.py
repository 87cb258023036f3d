"""Golden-digest regression tests (ISSUE 5).

Four small deterministic scenarios — one echo-RPC exchange per server
stack — run with a passive wire tap on the switch. Every frame the
switch admits is rendered with :func:`repro.faults.log.describe_frame`
(deterministic wire fields only) plus its simulated timestamp, and the
SHA-256 of that log is compared against checked-in values in
``golden_digests.json``.

The digests pin simulation *behaviour*, wire-event by wire-event and
nanosecond by nanosecond: any hot-path rewrite that changes what the
simulator computes — not just how fast — fails loudly here. Performance
work must keep these green by construction.

Updating the goldens
--------------------

When a PR *intentionally* changes behaviour (protocol fix, cost-model
recalibration), regenerate the checked-in values with::

    PYTHONPATH=src python tests/integration/test_golden_digests.py --update

and commit the resulting ``golden_digests.json`` alongside the change,
noting the reason in the commit message. The script prints old/new
digests so unintentional drift is visible at review time.
"""

import hashlib
import json
import os

import pytest

from repro.apps import EchoServer
from repro.apps.rpc import ClosedLoopClient
from repro.faults.log import describe_frame
from repro.harness import STACKS, Testbed, build_host

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")
N_RPCS = 10


class WireTap:
    """A pass-through switch fault hook that logs every admitted frame.

    Installing it does not perturb the simulation: frames are forwarded
    once, undelayed, exactly as without a hook.
    """

    def __init__(self, sim):
        self.sim = sim
        self.lines = []

    def admit(self, frame):
        self.lines.append("{} {}".format(self.sim.now, describe_frame(frame)))
        return [(frame, 0)]

    def digest(self):
        payload = "\n".join(self.lines).encode()
        return hashlib.sha256(payload).hexdigest()


def run_golden_scenario(server_stack):
    """One 10-RPC echo exchange; returns (digest, n_wire_events, final_ns)."""
    bed = Testbed(seed=23)
    server = build_host(bed, server_stack, "server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    tap = WireTap(bed.sim)
    bed.switch.faults = tap
    echo = EchoServer(server.new_context(), 7000, request_size=64)
    bed.sim.process(echo.run(), name="echo")
    rpc = ClosedLoopClient(client.new_context(), server.ip, 7000, 64, 64, warmup=1)
    proc = bed.sim.process(rpc.run(N_RPCS), name="rpc")
    bed.sim.run(until=proc)
    assert rpc.completed == N_RPCS, "golden scenario incomplete"
    return tap.digest(), len(tap.lines), bed.sim.now


def load_goldens():
    with open(GOLDENS_PATH) as source:
        return json.load(source)


@pytest.mark.parametrize("stack", STACKS)
def test_golden_digest(stack):
    goldens = load_goldens()
    digest, n_events, final_ns = run_golden_scenario(stack)
    expected = goldens[stack]
    assert digest == expected["digest"], (
        "{}: wire-log digest changed ({} wire events, final t={} ns vs golden {} events, t={} ns).\n"
        "Simulation behaviour drifted. If intentional, regenerate with:\n"
        "  PYTHONPATH=src python tests/integration/test_golden_digests.py --update".format(
            stack, n_events, final_ns, expected["wire_events"], expected["final_ns"]
        )
    )
    assert n_events == expected["wire_events"]
    assert final_ns == expected["final_ns"]


def update_goldens():
    try:
        old = load_goldens()
    except (OSError, ValueError):
        old = {}
    fresh = {}
    for stack in STACKS:
        digest, n_events, final_ns = run_golden_scenario(stack)
        fresh[stack] = {"digest": digest, "wire_events": n_events, "final_ns": final_ns}
        previous = old.get(stack, {}).get("digest", "<none>")
        marker = "  (unchanged)" if previous == digest else "  (was {})".format(previous[:16])
        print("%-8s %s%s" % (stack, digest, marker))
    with open(GOLDENS_PATH, "w") as out:
        json.dump(fresh, out, indent=2)
        out.write("\n")
    print("wrote {}".format(GOLDENS_PATH))


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        update_goldens()
    else:
        print(__doc__)
        sys.exit(2)
