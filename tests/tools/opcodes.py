"""``make opcodes``: bytecodes per op per layer, and events per op, here
and at BASE.

Host time on a shared machine cannot resolve a 1 % change in what the
simulator executes per op; the bytecodes it executes can, because for one
CPython they repeat exactly. :func:`count` traces one repetition of a
``perf/`` workload (at ``perf.workloads.TINY``'s size or, ``--size bench``,
the benchmark's) with ``f_trace_opcodes`` and charges each bytecode to the
``perf/layers.py`` layer of its code. The first table is the measured phase
per op and layer, set-up as one total, then events, runs from the kernel's
same-instant queue, heap pushes and process resumes per op; the second is
those events and runs (``queued``) per op by :func:`dispatch_key`, whose
``(dead)`` rows are totalled last; the third is the process resumes per op
by program (the process's name): a data-path program that is a Step chain
resumes no process. A table to read, not a gate: exit status 2 only when a
run fails. Run as ``python3 -m tests.tools.opcodes``.
"""

import argparse
import os
import sys

from tests.tools import judge

SETUP, MEASURED = 0, 1
#: Rows of the per-site table; the rest are summed into one.
SITES_SHOWN = 25
#: Rows of the per-program resume table.
PROGRAMS_SHOWN = 12
#: Marks a dispatch that can change nothing (:func:`dispatch_key`).
DEAD = " (dead)"
#: Marks an entry run from the same-instant queue rather than the heap.
QUEUED = "queued "
#: ``--size``: ``perf.workloads.TINY``'s, or each workload's defaults (what the benchmark runs).
TINY, BENCH = "tiny", "bench"


def sizes(workload, size):
    """The keyword arguments that build ``workload`` at ``size``."""
    from perf import workloads

    return dict(workloads.TINY[workload]) if size == TINY else {}


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
    step = getattr(owner, "_then", None)
    if step is not None:  # a chain's resume: the step it goes on with
        callback = step
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


class ResumeCounter:
    """While entered, counts ``Process._resume`` calls by process name into
    ``resumes`` whenever ``counting`` is true. Enter it before the processes
    are made: a process binds its resume when it is created."""

    def __init__(self):
        from repro.sim import core

        self.core = core
        self.counting = True
        self.resumes = {}

    def __enter__(self):
        plain = self.plain = self.core.Process._resume
        resumes = self.resumes

        def resume(process, event):
            if self.counting:
                resumes[process.name] = resumes.get(process.name, 0) + 1
            plain(process, event)

        self.core.Process._resume = resume
        return self

    def __exit__(self, *_exc):
        self.core.Process._resume = self.plain


def count(tree, workload, size=TINY):
    """Trace one repetition of ``workload`` from ``tree`` (the side first
    on ``sys.path``) at ``size``; returns ``{"ops", "events", "queued",
    "pushes", "setup": {layer: bytecodes}, "measured": {...}, "sites":
    {dispatch key: measured events}, "resumes": {process name: measured
    resumes}}``."""
    from perf import layers, spec, workloads

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
    untraced = (__file__, judge.__file__)  # the kernel hooks and the tally are not the simulator's work

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if tallying or filename in untraced:
            return None
        tracer = tracers.get(filename)
        if tracer is None:
            tracer = tracers[filename] = tracer_for(filename)
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return tracer

    built = sizes(workload, size)
    pushes = 0

    def tally(entry, prefix=""):
        # Every dispatch pops its event here, callbacks still attached.
        nonlocal tallying
        tallying = True
        key = prefix + dispatch_key(entry[3], tree)
        sites[key] = sites.get(key, 0) + 1
        tallying = False
        return entry

    def counting_push(kernel_push, heap, entry):
        # A heap push; an entry queued for now is not one.
        nonlocal pushes
        pushes += 1
        kernel_push(heap, entry)

    hooks = judge.KernelHooks(heappush=counting_push, heappop=lambda kernel_pop, heap: tally(kernel_pop(heap)),
                              popleft=lambda kernel_popleft, queued: tally(kernel_popleft(queued), QUEUED))
    counter = ResumeCounter()
    counter.counting = False
    sys.settrace(on_call)
    try:
        with counter:
            cells = workloads.BUILDERS[workload](spec.DEFAULT_SEED, **built)
            phase = MEASURED
            counter.counting = True
            with hooks:
                for cell in cells:
                    cell.measure()
    finally:
        sys.settrace(None)
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
        "pushes": pushes,
        "setup": {layer: row[SETUP] for layer, row in rows.items()},
        "measured": {layer: row[MEASURED] for layer, row in rows.items()},
        "sites": sites,
        "resumes": counter.resumes,
    }


def report(ref, workload, size, base, here):
    """The two tables for ``workload``: per layer, then per dispatch key."""
    if base["ops"] != here["ops"]:
        raise SystemExit("the two trees completed {} and {} ops".format(base["ops"], here["ops"]))
    ops = here["ops"]
    print("bytecodes (and events) per op on {} at the {} size ({} ops, CPython {}), base = {}".format(
        workload, size, ops, sys.version.split()[0], ref))
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
    row("queued runs, measured", base["queued"], here["queued"])
    row("heap pushes, measured", base["pushes"], here["pushes"])
    row("process resumes, measured", sum(base["resumes"].values()), sum(here["resumes"].values()))

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

    print()
    print("process resumes per op of the measured phase, by program (process name)")
    print(site_line.format("base", "here", "delta", "program"))
    was, now = base["resumes"], here["resumes"]
    names = sorted(set(was) | set(now), key=lambda name: (-max(was.get(name, 0), now.get(name, 0)), name))
    for name in names[:PROGRAMS_SHOWN]:
        site_row(name, was.get(name, 0), now.get(name, 0))
    rest = names[PROGRAMS_SHOWN:]
    if rest:
        site_row("({} more)".format(len(rest)), sum(was.get(name, 0) for name in rest),
                 sum(now.get(name, 0) for name in rest))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", choices=judge.WORKLOADS, help="one workload (default: all five)")
    parser.add_argument("--size", choices=(TINY, BENCH), default=TINY,
                        help="perf.workloads.TINY's (default) or the benchmark's")
    args = parser.parse_args(argv)
    with judge.base_tree(args.base) as base:
        for workload in [args.workload] if args.workload else judge.WORKLOADS:
            report(args.base, workload, args.size, *(judge.side(tree, count, tree=tree, workload=workload, size=args.size)
                                                     for tree in (base, judge.ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
