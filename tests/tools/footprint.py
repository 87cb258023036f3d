"""``make footprint``: what one repetition of a workload keeps resident,
and which layer holds it, here and at BASE — the memory counterpart of
``make opcodes``.

``peak_rss_mb`` says how much a run held at its worst, not what for.
:func:`measure` runs one repetition of a ``perf/`` workload at its
benchmark size, in separate processes: untraced, ``REPS`` times a side
in alternating order, for ``VmRSS`` after import, set-up and the
measured phase, then ``ru_maxrss`` (what ``peak_rss_mb`` reads; updated
lazily, so it can read below the last ``VmRSS``), each printed as the
median with its min–max (:func:`median_delta` says when the delta is
unresolved); and once under ``tracemalloc``, for the bytes still held after
set-up and after the measured phase per ``perf/layers.py`` layer. On
``conn-churn`` the measured phase's resident and traced growth is also
printed per lifecycle (:func:`per_lifecycle`). Every workload prints
the two slab rows' declared widths (``CONN_SLAB``/``SHADOW_SLAB``
``bytes_per_slot()``), so a row-width change shows beside the resident
delta it explains. On ``sparse-idle`` a
third run sets up with no quiescent connections, and the difference per
installed connection is printed per layer and per source file, in bytes
and in blocks (one block, one allocation: a unit no allocator or word
size changes). Both sides run from copies whose paths are equally long
(:func:`judge.here_tree`): resident memory moves by ~0.2 MiB with the
length of the path the code is loaded from. A table to read, not a
gate: exit status 2 only when a run fails. Run as
``python3 -m tests.tools.footprint``.
"""

import argparse
import gc
import os
import resource
import statistics
import sys
import tracemalloc

from tests.tools import judge

PHASES = ("set-up", "measured")
MIB = float(1 << 20)
#: Untraced repetitions a side: resident memory moves between identical
#: runs (echo-small's set-up VmRSS over 26 runs on one x86-64 Linux host,
#: CPython 3.11: 27.65-27.79 MiB). Drawn from those runs, an identical tree
#: reads "resolved" on 6 % of rows with 3 a side, 0.6 % with 5.
REPS = 5


def vm_rss_bytes():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    return 0


def held_per_layer(layers, tree):
    """``{"bytes": {layer: n}, "blocks": {layer: n}}`` still allocated
    since ``tracemalloc.start()``, and the same per source file under
    ``src/repro`` (``"file bytes"``, ``"file blocks"``; a file elsewhere is
    charged to its layer, in parentheses)."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)])
    package = os.path.join(os.path.abspath(tree), "src", "repro") + os.sep
    held = {"bytes": {}, "blocks": {}, "file bytes": {}, "file blocks": {}}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        layer = layers.layer_of_file(filename)
        source = filename[len(package):] if filename.startswith(package) else "({})".format(layer)
        for key, name, amount in (("bytes", layer, stat.size), ("blocks", layer, stat.count),
                                  ("file bytes", source, stat.size), ("file blocks", source, stat.count)):
            held[key][name] = held[key].get(name, 0) + amount
    return held


def measure(tree, workload, traced=False, empty=False):
    """One repetition of ``workload`` from ``tree`` (the side first on
    ``sys.path``); returns ``{"ops", "extras", "rss": {point: bytes},
    "held": {phase: {layer: bytes}}, "row bytes": {slab: bytes}}``
    (``held`` is empty untraced).
    ``empty``: set ``sparse-idle`` up with no quiescent connections, and
    stop there."""
    import perf.harness  # noqa: F401  (the import perf/run.py times: the simulator)
    from perf import layers, spec, workloads
    from repro.control.recovery import SHADOW_SLAB
    from repro.flextoe.state import CONN_SLAB

    rss = {"import": vm_rss_bytes()}
    held = {}
    if traced:
        tracemalloc.start()
    cells = workloads.BUILDERS[workload](spec.DEFAULT_SEED, **({"idle_conns": 0} if empty else {}))
    rss["set-up"] = vm_rss_bytes()
    if traced:
        held["set-up"] = held_per_layer(layers, tree)
    if empty:
        return {"held": held}
    for cell in cells:
        cell.measure()
    rss["measured"] = vm_rss_bytes()
    rss["peak"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if traced:
        held["measured"] = held_per_layer(layers, tree)
    ops = sum(cell.ok for cell in cells)
    if not ops or ops != sum(cell.planned for cell in cells):
        raise SystemExit("{}: {} of {} ops completed".format(workload, ops, sum(cell.planned for cell in cells)))
    extras = {}
    for cell in cells:
        extras.update(cell.extras)
    row_bytes = {"CONN_SLAB": CONN_SLAB.bytes_per_slot(), "SHADOW_SLAB": SHADOW_SLAB.bytes_per_slot()}
    return {"ops": ops, "extras": extras, "rss": rss, "held": held, "row bytes": row_bytes}


def median_delta(base, here):
    """The difference of two sides' median readings, and whether it is
    resolved: only a delta wider than both sides' min–max spreads is (one
    inside either spread is what that side's own runs move by)."""
    delta = statistics.median(here) - statistics.median(base)
    return delta, abs(delta) > max(max(base) - min(base), max(here) - min(here))


def sides(trees, workload):
    """``{side: {"resident": [REPS runs], "traced": run[, "empty": run]}}``
    for ``trees`` (``{"base": tree, "here": tree}``); the untraced runs
    alternate which side goes first, as ``make perf-pairs`` does."""
    runs = {name: {"resident": []} for name in trees}
    for rep in range(REPS):
        for name in ("base", "here") if rep % 2 == 0 else ("here", "base"):
            runs[name]["resident"].append(judge.side(trees[name], measure, tree=trees[name], workload=workload))
    for name, tree in trees.items():
        runs[name]["traced"] = judge.side(tree, measure, tree=tree, workload=workload, traced=True)
        if workload == "sparse-idle":
            runs[name]["empty"] = judge.side(tree, measure, tree=tree, workload=workload, traced=True, empty=True)
    return runs


def per_lifecycle(side):
    """``{"resident": B, "traced": B}`` the measured phase added per op
    (on ``conn-churn``, one connection's lifecycle): the ``VmRSS`` delta
    from set-up, median of the untraced runs, and the bytes still traced,
    each ÷ ops."""
    ops = side["traced"]["ops"]
    resident = statistics.median(run["rss"]["measured"] - run["rss"]["set-up"] for run in side["resident"])
    held = side["traced"]["held"]
    traced = sum(held["measured"]["bytes"].values()) - sum(held["set-up"]["bytes"].values())
    return {"resident": resident / ops, "traced": traced / ops}


def report(ref, workload, base, here):
    """Resident memory, then what each layer holds (and, on ``sparse-idle``, per connection)."""
    ops = {run["ops"] for side in (base, here) for run in side["resident"]}
    if len(ops) != 1:
        raise SystemExit("the two trees completed {} ops".format(sorted(ops)))
    print("footprint of one {} repetition ({} ops, CPython {}), base = {}".format(
        workload, ops.pop(), sys.version.split()[0], ref))
    spread = "{:<24} {:>24} {:>24} {:>20}"
    print(spread.format("resident (MiB), {} runs".format(REPS), "base: median (min-max)", "here: median (min-max)",
                        "delta"))
    for name, key in (("after import", "import"), ("after set-up", "set-up"),
                      ("after measured phase", "measured"), ("peak (ru_maxrss)", "peak")):
        was, now = ([run["rss"][key] / MIB for run in side["resident"]] for side in (base, here))
        delta, resolved = median_delta(was, now)
        cells = ["%.2f (%.2f-%.2f)" % (statistics.median(v), min(v), max(v)) for v in (was, now)]
        print(spread.format(name, *cells, "%+.2f" % delta + ("" if resolved else " (unresolved)")))
    line = "{:<38} {:>12} {:>12} {:>12}"

    def table(title, rows, unit, scale):
        print(line.format(title, "base", "here", "delta"))
        for label, was, now in rows:
            print(line.format(label, unit % (was / scale), unit % (now / scale), ("%+" + unit[1:]) % ((now - was) / scale)))

    was, now = base["traced"]["row bytes"], here["traced"]["row bytes"]
    table("row width (B per slot)", [(name, was[name], now[name]) for name in sorted(was)], "%.0f", 1.0)
    for phase in PHASES:
        was, now = base["traced"]["held"][phase]["bytes"], here["traced"]["held"][phase]["bytes"]
        rows = [(layer, was.get(layer, 0), now.get(layer, 0)) for layer in sorted(set(was) | set(now))]
        rows.append(("total", sum(was.values()), sum(now.values())))
        table("held after {} (KiB)".format(phase), rows, "%.1f", 1024.0)
    if workload == "conn-churn":
        was, now = per_lifecycle(base), per_lifecycle(here)
        table("per lifecycle (B)", [(key, was[key], now[key]) for key in ("resident", "traced")], "%.1f", 1.0)
    if workload == "sparse-idle":
        installed = here["traced"]["extras"]["installed"]
        for unit, title, floor in (("bytes", "B", installed), ("blocks", "blocks", installed / 100),
                                   ("file bytes", "B by file", installed),
                                   ("file blocks", "blocks by file", installed / 100)):
            per_conn = []
            for side in (base, here):
                full, empty = side["traced"]["held"]["set-up"][unit], side["empty"]["held"]["set-up"][unit]
                per_conn.append({name: full.get(name, 0) - empty.get(name, 0) for name in set(full) | set(empty)})
            was, now = per_conn
            rows = [(name, was.get(name, 0), now.get(name, 0)) for name in sorted(set(was) | set(now))
                    if max(abs(was.get(name, 0)), abs(now.get(name, 0))) >= floor]  # >= 1 B, 0.01 block each
            rows.append(("total", sum(was.values()), sum(now.values())))
            if unit == "bytes":
                rows.append(("resident (install VmRSS)", base["resident"][0]["extras"]["install_rss_bytes"],
                             here["resident"][0]["extras"]["install_rss_bytes"]))
            table("{} per connection ({})".format(title, installed), rows,
                  "%.2f" if unit.endswith("blocks") else "%.1f", float(installed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", choices=judge.WORKLOADS, help="one workload (default: all five)")
    args = parser.parse_args(argv)
    with judge.base_tree(args.base) as base, judge.here_tree() as here:
        for workload in [args.workload] if args.workload else judge.WORKLOADS:
            runs = sides({"base": base, "here": here}, workload)
            report(args.base, workload, runs["base"], runs["here"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
