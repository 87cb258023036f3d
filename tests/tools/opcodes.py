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
removes events shows whether it also removed host work. Then those
events per op by what they are and whom they wake: the event class and
the innermost yield site of the process it resumes (``file function+k``,
``k`` lines into the function, so the key survives edits above it), or
the callback it runs — the table that shows an event diet what is left.

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
#: Rows of the per-site table; the rest are summed into one.
SITES_SHOWN = 25


def _where(code, lineno, tree):
    """``file function+k``: ``code``'s file (short, relative to ``tree``),
    its qualified name (plain name before CPython 3.11) and ``lineno``'s
    offset into it."""
    path = os.path.relpath(code.co_filename, tree).replace(os.sep, "/")
    if path.startswith("../"):
        path = os.path.basename(code.co_filename)
    path = path[len("src/repro/"):] if path.startswith("src/repro/") else path
    return "{} {}+{}".format(path, code_name(code), lineno - code.co_firstlineno)


def code_name(code):
    """``code``'s qualified name; its plain name where CPython (< 3.11) has no other."""
    return getattr(code, "co_qualname", code.co_name)


def _callback_site(callback, tree):
    owner = getattr(callback, "__self__", None)
    generator = getattr(owner, "_generator", None)
    if generator is not None:  # a process's resume: where it is parked
        while getattr(generator.gi_yieldfrom, "gi_frame", None) is not None:
            generator = generator.gi_yieldfrom
        frame = generator.gi_frame
        return _where(frame.f_code, frame.f_lineno, tree) if frame else "(finished process)"
    if owner is not None and getattr(owner, "callbacks", None):  # a condition: whom it wakes
        return "{} <- {}".format(type(owner).__name__, _callback_site(owner.callbacks[0], tree))
    code = getattr(getattr(callback, "__func__", callback), "__code__", None)
    if code is None:
        return getattr(callback, "__qualname__", type(callback).__name__)
    return _where(code, code.co_firstlineno, tree)


def dispatch_key(event, tree):
    """``"Class site"`` of an event about to be dispatched: its class and
    the innermost yield site of the process its first callback resumes,
    or that callback (a condition's, through to its own first waiter)."""
    callbacks = event.callbacks
    site = _callback_site(callbacks[0], tree) if callbacks else "(no callback)"
    return "{} {}".format(type(event).__name__, site)


def count(tree, workload):
    """Trace one repetition of ``workload`` from ``tree``; returns
    ``{"ops", "events", "setup": {layer: bytecodes}, "measured": {...},
    "sites": {dispatch key: measured events}}``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [tree, os.path.join(tree, "src")]
    from perf import layers, spec, workloads
    from repro.sim import core

    rows = {}  # layer -> [set-up, measured]
    tracers = {}  # file name -> that layer's opcode tracer
    sites = {}  # dispatch key -> events of the measured phase
    phase = SETUP

    def tracer_for(filename):
        row = rows.setdefault(layers.layer_of_file(filename), [0, 0])

        def on_opcode(frame, event, arg):
            if event == "opcode":
                row[phase] += 1
            return on_opcode

        return on_opcode

    tallying = False

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if tallying or filename == __file__:
            return None  # the dispatch tally below is not the simulator's work
        tracer = tracers.get(filename)
        if tracer is None:
            tracer = tracers[filename] = tracer_for(filename)
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return tracer

    kernel_pop = core.heappop

    def tallying_pop(heap):
        # Every dispatch pops its event here, callbacks still attached.
        nonlocal tallying
        tallying = True
        entry = kernel_pop(heap)
        key = dispatch_key(entry[3], tree)
        sites[key] = sites.get(key, 0) + 1
        tallying = False
        return entry

    sys.settrace(on_call)
    try:
        cells = workloads.BUILDERS[workload](spec.DEFAULT_SEED, **workloads.TINY[workload])
        phase = MEASURED
        core.heappop = tallying_pop
        for cell in cells:
            cell.measure()
    finally:
        sys.settrace(None)
        core.heappop = kernel_pop
    ops = sum(cell.ok for cell in cells)
    if not ops or ops != sum(cell.planned for cell in cells):
        raise SystemExit("{}: {} of {} ops completed".format(workload, ops, sum(cell.planned for cell in cells)))
    events = sum(cell.events for cell in cells)
    tallied = sum(sites.values())
    if tallied != events:
        raise SystemExit("{}: tallied {} dispatches of {} events".format(workload, tallied, events))
    return {
        "ops": ops,
        "events": events,
        "setup": {layer: row[SETUP] for layer, row in rows.items()},
        "measured": {layer: row[MEASURED] for layer, row in rows.items()},
        "sites": sites,
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

    print()
    print("events per op of the measured phase, by event class and the yield site it resumes (or callback)")
    site_line = "{:>8} {:>8} {:>8}  {}"
    print(site_line.format("base", "here", "delta", "class, site"))
    was, now = base["sites"], here["sites"]
    keys = sorted(set(was) | set(now), key=lambda key: (-max(was.get(key, 0), now.get(key, 0)), key))

    def site_row(label, a, b):
        print(site_line.format("%.1f" % (a / ops), "%.1f" % (b / ops), "%+.1f" % ((b - a) / ops), label))

    for key in keys[:SITES_SHOWN]:
        site_row(key, was.get(key, 0), now.get(key, 0))
    rest = keys[SITES_SHOWN:]
    if rest:
        site_row("({} more)".format(len(rest)),
                 sum(was.get(key, 0) for key in rest), sum(now.get(key, 0) for key in rest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
