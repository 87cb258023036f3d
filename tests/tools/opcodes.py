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
removes events shows whether it also removed host work — and the
entries it ran from the kernel's same-instant queue. Then those events
and entries (``queued``) per op by what they are and whom they wake:
the event class and
the innermost yield site of the process it resumes (``file function+k``,
``k`` lines into the function, so the key survives edits above it; the
last process a dispatch resumes, after its event's own steps), or the
callback it runs — the table that shows an event diet what is left;
``(dead)`` marks a dispatch whose callbacks are all the check of a
condition that has already fired, and their total closes the table.

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
#: Marks a dispatch that can change nothing (:func:`dispatch_key`).
DEAD = " (dead)"
#: Marks an entry run from the same-instant queue rather than the heap.
QUEUED = "queued "


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


def _resumes_process(callback):
    return getattr(getattr(callback, "__self__", None), "_generator", None) is not None


def _waker(callbacks):
    """The callback a dispatch is keyed by: the last one that resumes a
    process (an event's own steps — a hold's charge, a condition's check —
    run before the waiters they serve), else the first."""
    for callback in reversed(callbacks):
        if _resumes_process(callback):
            return callback
    return callbacks[0]


def _callback_site(callback, tree):
    owner = getattr(callback, "__self__", None)
    generator = getattr(owner, "_generator", None)
    if generator is not None:  # a process's resume: where it is parked
        while getattr(generator.gi_yieldfrom, "gi_frame", None) is not None:
            generator = generator.gi_yieldfrom
        frame = generator.gi_frame
        return _where(frame.f_code, frame.f_lineno, tree) if frame else "(finished process)"
    waiters = getattr(owner, "callbacks", None)
    if waiters and callback not in waiters:  # a condition's or a hold's step: whom its event wakes
        return "{} <- {}".format(type(owner).__name__, _callback_site(_waker(waiters), tree))
    code = getattr(getattr(callback, "__func__", callback), "__code__", None)
    if code is None:
        return getattr(callback, "__qualname__", type(callback).__name__)
    return _where(code, code.co_firstlineno, tree)


def _fired_check(callback):
    """Whether ``callback`` is a condition's member check whose condition
    has already fired: it runs and changes nothing."""
    owner = getattr(callback, "__self__", None)
    return getattr(callback, "__name__", None) == "_check" and getattr(owner, "triggered", False)


def dispatch_key(event, tree):
    """``"Class site"`` of an event about to be dispatched: its class and
    the innermost yield site of the process it resumes — through the last
    callback that resumes one — or else of its first callback (a
    condition's or a hold's, through to the waiter it wakes); ``(dead)``
    appended when every callback is a fired condition's check."""
    callbacks = event.callbacks
    site = _callback_site(_waker(callbacks), tree) if callbacks else "(no callback)"
    key = "{} {}".format(type(event).__name__, site)
    return key + DEAD if callbacks and all(map(_fired_check, callbacks)) else key


def count(tree, workload):
    """Trace one repetition of ``workload`` from ``tree``; returns
    ``{"ops", "events", "queued", "setup": {layer: bytecodes}, "measured":
    {...}, "sites": {dispatch key: measured events}}``."""
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
    queue = getattr(core, "_Queue", None)  # absent before the kernel had one
    kernel_popleft = queue.popleft if queue is not None else None

    def tally(entry, prefix=""):
        # Every dispatch pops its event here, callbacks still attached.
        nonlocal tallying
        tallying = True
        key = prefix + dispatch_key(entry[3], tree)
        sites[key] = sites.get(key, 0) + 1
        tallying = False
        return entry

    def tallying_pop(heap):
        return tally(kernel_pop(heap))

    def tallying_popleft(queued):
        return tally(kernel_popleft(queued), QUEUED)

    sys.settrace(on_call)
    try:
        cells = workloads.BUILDERS[workload](spec.DEFAULT_SEED, **workloads.TINY[workload])
        phase = MEASURED
        core.heappop = tallying_pop
        if queue is not None:
            queue.popleft = tallying_popleft
        for cell in cells:
            cell.measure()
    finally:
        sys.settrace(None)
        core.heappop = kernel_pop
        if queue is not None:
            queue.popleft = kernel_popleft
    ops = sum(cell.ok for cell in cells)
    if not ops or ops != sum(cell.planned for cell in cells):
        raise SystemExit("{}: {} of {} ops completed".format(workload, ops, sum(cell.planned for cell in cells)))
    events = sum(cell.events for cell in cells)
    queued = sum(n for key, n in sites.items() if key.startswith(QUEUED))
    tallied = sum(sites.values()) - queued
    if tallied != events:
        raise SystemExit("{}: tallied {} dispatches of {} events".format(workload, tallied, events))
    return {
        "ops": ops,
        "events": events,
        "queued": queued,
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
    row("queued runs, measured", base.get("queued", 0), here.get("queued", 0))

    print()
    print("events per op of the measured phase and entries run from the same-instant queue ({}), by event "
          "class and the yield site it resumes (or callback)".format(QUEUED.strip()))
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
    dead = [key for key in keys if key.endswith(DEAD)]
    site_row("dead dispatches, total", sum(was.get(key, 0) for key in dead), sum(now.get(key, 0) for key in dead))
    return 0


if __name__ == "__main__":
    sys.exit(main())
