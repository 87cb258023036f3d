"""``python -m repro``: entry points for the reproduction.

With no arguments this runs a 30-second self-demonstration: it builds
the four-stack testbed, runs one echo RPC exchange on each server
stack, and prints a latency line per stack — a smoke test that the
whole simulation (NIC pipeline, control plane, baselines, switch) is
healthy.

Subcommands (each forwards its remaining arguments to the subsystem's
own argument parser — ``python -m repro <cmd> --help`` for details):

* ``lint``   — static analysis suite (:mod:`repro.analysis.cli`): the
  xdp-verifier, xdp-deadcode, hb-race and sim-process passes.
* ``faults`` — run a named deterministic fault plan as an asserted test
  (:mod:`repro.faults.cli`).
"""

import argparse
import sys


def demo_stack(stack):
    from repro.apps import EchoServer
    from repro.apps.rpc import ClosedLoopClient
    from repro.harness import Testbed, build_host

    bed = Testbed(seed=7)
    server = build_host(bed, stack, "server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    echo = EchoServer(server.new_context(), 7000, request_size=64)
    bed.sim.process(echo.run(), name="echo")
    rpc = ClosedLoopClient(client.new_context(), server.ip, 7000, 64, 64, warmup=5)
    proc = bed.sim.process(rpc.run(50), name="rpc")
    bed.sim.run(until=proc)
    return rpc.histogram


def demo():
    print("FlexTOE reproduction self-demo: 50 echo RPCs per server stack\n")
    print("%-9s %10s %10s %10s" % ("stack", "p50 (us)", "p99 (us)", "min (us)"))
    for stack in ("flextoe", "tas", "chelsio", "linux"):
        hist = demo_stack(stack)
        print(
            "%-9s %10.1f %10.1f %10.1f"
            % (stack, hist.percentile(50) / 1e3, hist.percentile(99) / 1e3, (hist.min_value or 0) / 1e3)
        )
    print("\nAll four stacks exchanged RPCs over the simulated testbed.")
    print("Next: python -m repro lint  |  python -m repro faults --list")
    return 0


COMMANDS = {
    "lint": "static analysis: xdp-verifier, xdp-deadcode, hb-race, sim-process",
    "faults": "run a deterministic fault plan as an asserted test",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexTOE reproduction entry points (no subcommand runs the self-demo).",
        epilog="Each subcommand has its own options: python -m repro <cmd> --help.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{%s}" % ",".join(COMMANDS))
    for name, help_text in COMMANDS.items():
        sub.add_parser(name, help=help_text, add_help=False)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # Dispatch manually so subcommand options (e.g. ``faults --list``)
    # reach the subsystem's own parser verbatim (argparse.REMAINDER
    # mis-parses leading optionals after a subparser, bpo-17050).
    if argv and argv[0] in COMMANDS:
        command, rest = argv[0], argv[1:]
        if command == "lint":
            from repro.analysis.cli import main as lint_main

            return lint_main(rest)
        from repro.faults.cli import main as faults_main

        return faults_main(rest)
    build_parser().parse_args(argv)
    return demo()


if __name__ == "__main__":
    sys.exit(main())
