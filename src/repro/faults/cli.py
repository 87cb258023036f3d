"""``python -m repro faults`` — run a named fault plan as an asserted test.

Builds a two-host testbed (any stack pair), installs the plan, streams
bytes client → server and echoes them back, then checks the delivery and
liveness invariants. Prints a per-fault event summary and the injection
log's SHA-256 digest (the determinism handle); ``--json`` dumps the full
log for offline analysis. Exit status 0 means every invariant held.

Examples::

    python -m repro faults --list
    python -m repro faults --plan bursty-loss --seed 7
    python -m repro faults --plan dma-flake --client linux --bytes 20000
    python -m repro faults --plan all --json run.json
"""

import argparse
import json
import sys

from repro.faults.invariants import (
    InvariantViolation,
    assert_exact_delivery,
    counters_snapshot,
    run_until,
    total_retransmits,
)
from repro.faults.plans import REGISTRY, make_plan


def run_plan(plan_name, seed=1, server_stack="flextoe", client_stack="flextoe", n_bytes=8000, horizon_ns=2_000_000_000):
    """Run one plan against one stack pair; returns a result dict."""
    from repro.harness import STACKS, Testbed, build_host

    for stack in (server_stack, client_stack):
        if stack not in STACKS:
            raise SystemExit("unknown stack {!r}; known: {}".format(stack, ", ".join(STACKS)))
    bed = Testbed(seed=seed)
    server = build_host(bed, server_stack, "server")
    client = build_host(bed, client_stack, "client")
    bed.seed_all_arp()
    plan = make_plan(plan_name)
    controller = plan.install(bed)

    message = bytes(i % 251 for i in range(n_bytes))
    state = {"echoed": b"", "reply": b"", "done": False}

    def server_app(ctx):
        listener = ctx.listen(7000)
        sock = yield from ctx.accept(listener)
        data = b""
        while len(data) < n_bytes:
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                return
            data += chunk
        state["echoed"] = data
        yield from ctx.send(sock, data[::-1])

    def client_app(ctx):
        sock = yield from ctx.connect(server.ip, 7000)
        yield from ctx.send(sock, message)
        reply = b""
        while len(reply) < n_bytes:
            chunk = yield from ctx.recv(sock, 65536)
            if not chunk:
                break
            reply += chunk
        state["reply"] = reply
        state["done"] = True

    bed.sim.process(server_app(server.new_context()), name="server-app")
    bed.sim.process(client_app(client.new_context()), name="client-app")

    before = counters_snapshot(bed)
    violations = []
    finished_ns = None
    try:
        finished_ns = run_until(
            bed, lambda: state["done"], horizon_ns, label="faults:{}".format(plan_name)
        )
        assert_exact_delivery(message, state["echoed"], "client->server")
        assert_exact_delivery(message[::-1], state["reply"], "server->client")
    except InvariantViolation as exc:
        violations.append(str(exc))
    after = counters_snapshot(bed)

    return {
        "plan": plan_name,
        "seed": seed,
        "stacks": {"server": server_stack, "client": client_stack},
        "bytes": n_bytes,
        "finished_ns": finished_ns,
        "violations": violations,
        "retransmit_events": total_retransmits(after) - total_retransmits(before),
        "injections": len(controller.log),
        "event_counts": {
            "{}/{}".format(fault, action): count
            for (fault, action), count in sorted(controller.log.counts().items())
        },
        "digest": controller.log.digest(),
        "log": controller.log.to_jsonable(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro faults", description="Run a deterministic fault plan as an asserted test."
    )
    parser.add_argument("--plan", default="bursty-loss", help="plan name, or 'all' (default: bursty-loss)")
    parser.add_argument("--list", action="store_true", help="list registered plans and exit")
    parser.add_argument("--seed", type=int, default=1, help="testbed RNG seed (default: 1)")
    parser.add_argument("--server", default="flextoe", help="server stack (default: flextoe)")
    parser.add_argument("--client", default="flextoe", help="client stack (default: flextoe)")
    parser.add_argument("--bytes", type=int, default=8000, dest="n_bytes", help="payload size (default: 8000)")
    parser.add_argument(
        "--horizon-ns", type=int, default=2_000_000_000, help="wedge bound in sim ns (default: 2e9)"
    )
    parser.add_argument("--json", metavar="PATH", help="write the full results (with logs) as JSON")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(REGISTRY):
            print(name)
        return 0

    plan_names = sorted(REGISTRY) if args.plan == "all" else [args.plan]
    results = []
    failed = False
    for plan_name in plan_names:
        result = run_plan(
            plan_name,
            seed=args.seed,
            server_stack=args.server,
            client_stack=args.client,
            n_bytes=args.n_bytes,
            horizon_ns=args.horizon_ns,
        )
        results.append(result)
        status = "ok" if not result["violations"] else "FAIL"
        if result["violations"]:
            failed = True
        print(
            "[{}] plan={} seed={} {}<-{} bytes={} injections={} rexmt={} digest={}".format(
                status,
                result["plan"],
                result["seed"],
                args.server,
                args.client,
                result["bytes"],
                result["injections"],
                result["retransmit_events"],
                result["digest"][:16],
            )
        )
        for key, count in result["event_counts"].items():
            print("    {:<28} {}".format(key, count))
        for violation in result["violations"]:
            print("    VIOLATION: {}".format(violation))

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print("wrote {}".format(args.json))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
