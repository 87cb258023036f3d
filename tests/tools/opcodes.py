"""``make opcodes``: bytecodes per op per layer, and events per op, here
and at BASE.

Host time on a shared machine cannot resolve a 1 % change in what the
simulator executes per op; the number of bytecodes it executes can,
because for one CPython it repeats exactly. This runs one repetition of
a ``perf/`` workload — set-up, then the measured phase, at
``perf.workloads.TINY``'s size — under ``sys.settrace`` with
``f_trace_opcodes`` on every frame, and charges each executed bytecode to
the ``perf/layers.py`` layer of the code it belongs to; once on a
``git archive`` of BASE and once on this tree (each side imports its own
``perf`` and ``repro``). It prints the measured phase per completed op
and layer for both trees with the difference, set-up as one total, and
the events the measured phase dispatched per op — so a change that
removes events shows whether it also removed host work.

Standard library only; nothing under ``perf/`` is edited. A table to
read, not a gate: exit status 2 only when a run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SETUP, MEASURED = 0, 1


def count(tree, workload):
    """Trace one repetition of ``workload`` from ``tree``; returns
    ``{"ops", "events", "setup": {layer: bytecodes}, "measured": {...}}``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [tree, os.path.join(tree, "src")]
    from perf import layers, spec, workloads

    rows = {}  # layer -> [set-up, measured]
    tracers = {}  # file name -> that layer's opcode tracer
    phase = SETUP

    def tracer_for(filename):
        row = rows.setdefault(layers.layer_of_file(filename), [0, 0])

        def on_opcode(frame, event, arg):
            if event == "opcode":
                row[phase] += 1
            return on_opcode

        return on_opcode

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        tracer = tracers.get(filename)
        if tracer is None:
            tracer = tracers[filename] = tracer_for(filename)
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return tracer

    sys.settrace(on_call)
    try:
        cells = workloads.BUILDERS[workload](spec.DEFAULT_SEED, **workloads.TINY[workload])
        phase = MEASURED
        for cell in cells:
            cell.measure()
    finally:
        sys.settrace(None)
    ops = sum(cell.ok for cell in cells)
    if not ops or ops != sum(cell.planned for cell in cells):
        raise SystemExit("{}: {} of {} ops completed".format(workload, ops, sum(cell.planned for cell in cells)))
    return {
        "ops": ops,
        "events": sum(cell.events for cell in cells),
        "setup": {layer: row[SETUP] for layer, row in rows.items()},
        "measured": {layer: row[MEASURED] for layer, row in rows.items()},
    }


def count_in(tree, workload):
    """:func:`count` in a process of its own, so each side's modules are its own."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--count", tree, "--workload", workload],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git ref of the parent side")
    parser.add_argument("--workload", default="echo-small")
    parser.add_argument("--count", metavar="TREE", help="(internal) trace TREE in this process, print JSON")
    args = parser.parse_args(argv)
    if args.count:
        json.dump(count(args.count, args.workload), sys.stdout)
        return 0
    if not args.base:
        parser.error("--base is required")
    tmp = tempfile.mkdtemp(prefix="opcodes-")
    try:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        base, here = count_in(tmp, args.workload), count_in(ROOT, args.workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if base["ops"] != here["ops"]:
        raise SystemExit("the two trees completed {} and {} ops".format(base["ops"], here["ops"]))
    ops = here["ops"]
    print("bytecodes (and events) per op on {} ({} ops, CPython {}), base = {}".format(
        args.workload, ops, sys.version.split()[0], args.base))
    line = "{:<22} {:>12} {:>12} {:>10}"
    print(line.format("layer", "base", "here", "delta"))

    def row(label, was, now):
        print(line.format(label, "%.1f" % (was / ops), "%.1f" % (now / ops), "%+.1f" % ((now - was) / ops)))

    for layer in sorted(set(base["measured"]) | set(here["measured"])):
        was, now = base["measured"].get(layer, 0), here["measured"].get(layer, 0)
        if was or now:
            row(layer, was, now)
    row("measured, total", sum(base["measured"].values()), sum(here["measured"].values()))
    row("set-up, total", sum(base["setup"].values()), sum(here["setup"].values()))
    row("events, measured", base["events"], here["events"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
