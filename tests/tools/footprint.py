"""``make footprint``: what one repetition of a workload keeps resident,
and which layer holds it, here and at BASE — the memory counterpart of
``make opcodes``.

``peak_rss_mb`` says how much a run held at its worst, not what for.
This runs one repetition of a ``perf/`` workload at its benchmark size
(set-up, then the measured phase) on a ``git archive`` of BASE and on this
tree, each side in processes of its own (each imports its own ``perf`` and
``repro``):

* untraced, for resident memory: ``VmRSS`` after import, after set-up and
  after the measured phase, then ``ru_maxrss`` (what ``peak_rss_mb``
  reads; the kernel updates it lazily, so it can read below the last
  ``VmRSS``);
* under ``tracemalloc`` (started after import), for the bytes still held
  after set-up and after the measured phase, charged to the
  ``perf/layers.py`` layer of the code that allocated them. On
  ``sparse-idle`` a third run sets up with no quiescent connections, and
  the difference per installed connection is printed per layer too, in
  bytes and in blocks: a block is one allocation (an object, a dict's
  table, an array's buffer growth), so blocks per connection count what
  a connection costs in a unit no allocator or word size changes. Both
  are printed again per source file under ``src/repro``, which names the
  structure a layer lumps together (the lookup engine is ``nfp/cam.py``
  inside ``nfp.other``).

It prints both trees with the difference. Standard library only; nothing
under ``perf/`` is edited. A table to read, not a gate: exit status 2
only when a run fails.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PHASES = ("set-up", "measured")
MIB = float(1 << 20)


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


def measure(tree, workload, traced, empty):
    """One repetition of ``workload`` from ``tree``; returns ``{"ops",
    "extras", "rss": {point: bytes}, "held": {phase: {layer: bytes}}}``
    (``held`` is empty untraced). ``empty``: set ``sparse-idle`` up with no
    quiescent connections, and stop there."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [tree, os.path.join(tree, "src")]
    import perf.harness  # noqa: F401  (the import perf/run.py times: the simulator)
    from perf import layers, spec, workloads

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
    return {"ops": ops, "extras": extras, "rss": rss, "held": held}


def measure_in(tree, workload, *flags):
    """:func:`measure` in a process of its own; ``flags`` are
    ``--traced`` and ``--empty``."""
    command = [sys.executable, os.path.abspath(__file__), "--measure", tree, "--workload", workload]
    done = subprocess.run(command + list(flags), cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def sides(tree, workload):
    side = {"resident": measure_in(tree, workload), "traced": measure_in(tree, workload, "--traced")}
    if workload == "sparse-idle":
        side["empty"] = measure_in(tree, workload, "--traced", "--empty")
    return side


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git ref of the parent side")
    parser.add_argument("--workload", default="echo-small")
    parser.add_argument("--measure", metavar="TREE", help="(internal) run TREE in this process, print JSON")
    parser.add_argument("--traced", action="store_true", help="(internal) with --measure: under tracemalloc")
    parser.add_argument("--empty", action="store_true",
                        help="(internal) with --measure: sparse-idle set-up with no quiescent connections")
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(measure(args.measure, args.workload, args.traced, args.empty), sys.stdout)
        return 0
    if not args.base:
        parser.error("--base is required")
    tmp = tempfile.mkdtemp(prefix="footprint-")
    try:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        base, here = sides(tmp, args.workload), sides(ROOT, args.workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if base["resident"]["ops"] != here["resident"]["ops"]:
        raise SystemExit("the two trees completed {} and {} ops".format(
            base["resident"]["ops"], here["resident"]["ops"]))
    print("footprint of one {} repetition ({} ops, CPython {}), base = {}".format(
        args.workload, here["resident"]["ops"], sys.version.split()[0], args.base))
    line = "{:<38} {:>12} {:>12} {:>12}"

    def table(title, rows, unit, scale):
        print(line.format(title, "base", "here", "delta"))
        for label, was, now in rows:
            print(line.format(label, unit % (was / scale), unit % (now / scale), ("%+" + unit[1:]) % ((now - was) / scale)))

    rss = [(name, base["resident"]["rss"][key], here["resident"]["rss"][key]) for name, key in (
        ("after import", "import"), ("after set-up", "set-up"), ("after measured phase", "measured"),
        ("peak (ru_maxrss)", "peak"))]
    table("resident (MiB)", rss, "%.2f", MIB)
    for phase in PHASES:
        was, now = base["traced"]["held"][phase]["bytes"], here["traced"]["held"][phase]["bytes"]
        rows = [(layer, was.get(layer, 0), now.get(layer, 0)) for layer in sorted(set(was) | set(now))]
        rows.append(("total", sum(was.values()), sum(now.values())))
        table("held after {} (KiB)".format(phase), rows, "%.1f", 1024.0)
    if args.workload == "sparse-idle":
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
                rows.append(("resident (install VmRSS)", base["resident"]["extras"]["install_rss_bytes"],
                             here["resident"]["extras"]["install_rss_bytes"]))
            table("{} per connection ({})".format(title, installed), rows,
                  "%.2f" if unit.endswith("blocks") else "%.1f", float(installed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
