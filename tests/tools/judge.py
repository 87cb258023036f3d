"""One runner for the tools that compare BASE with this tree: it gets BASE
(:func:`base_tree`; :func:`here_tree` copies this tree to a path of the
same shape), runs a measure on one side in a process of its own
for its JSON (:func:`side`, :func:`read`: exit 2 with the side's output
when it fails), and rebinds kernel functions (:class:`KernelHooks`). As
``python3 -m tests.tools.judge JOB [BASE]`` it is ``make loc``,
``perf-exact`` and ``faults-exact``.
"""

import contextlib
import glob
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: The one internal flag: run a measure on the tree it names, print its JSON.
SIDE = "--side"
WORKLOADS = ("echo-small", "large-loss", "sparse-idle", "conn-churn", "baseline-stacks")
#: ``perf/compare.py``'s rows that must hold exactly: simulated, so a fixed seed repeats them.
EXACT = ("events_per_op", "sim_lat_p50_us", "sim_lat_tail_us", "sim_goodput_mbps", "ops_ok_frac")
#: CI's two sanitized ``repro faults`` runs, by artefact name.
FAULT_PLANS = {
    "plans": ["--plan", "all", "--seed", "7", "--bytes", "60000"],
    "nic-crash": ["--plan", "nic-crash", "--seed", "7", "--bytes", "120000"],
}


@contextlib.contextmanager
def base_tree(ref):
    """A ``git archive`` of ``ref``, extracted into a directory removed on exit."""
    with tempfile.TemporaryDirectory(prefix="judge-") as tmp:
        archive = subprocess.run(["git", "archive", ref], cwd=ROOT, stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        yield tmp


@contextlib.contextmanager
def here_tree():
    """This working tree's files (tracked, and untracked but not ignored),
    copied into a directory removed on exit whose path is as long as
    :func:`base_tree`'s: where a process's strings and allocations depend
    on the path its code was loaded from (resident memory does), the two
    sides then differ in nothing but the code."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                            stdout=subprocess.PIPE, check=True).stdout.decode().split("\0")
    with tempfile.TemporaryDirectory(prefix="judge-") as tmp:
        for name in filter(None, listed):
            source = os.path.join(ROOT, name)
            if os.path.isfile(source):  # not a tracked file deleted from the working tree
                os.makedirs(os.path.dirname(os.path.join(tmp, name)), exist_ok=True)
                shutil.copy2(source, os.path.join(tmp, name))
        yield tmp


def _fail(done):
    sys.stderr.write(done.stdout + done.stderr)
    raise SystemExit(2)


def run(tree, command, **env):
    """``command`` run to completion in ``tree``, with ``env`` added."""
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, env=dict(os.environ, **env))
    if done.returncode:
        _fail(done)
    return done


def read(tree, command):
    """The JSON ``command`` prints as its last line, run in ``tree``."""
    done = run(tree, command)
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        _fail(done)


def side(tree, measure, /, **kwargs):
    """``measure(**kwargs)`` in a process of its own on ``tree``; its JSON."""
    module = measure.__module__
    if module == "__main__":  # a tool run with python -m
        module = sys.modules[module].__spec__.name
    return read(tree, [sys.executable, os.path.abspath(__file__), SIDE, tree, module, measure.__name__,
                       json.dumps(kwargs)])


def _side(tree, module, name, kwargs_json):
    sys.dont_write_bytecode = True
    sys.path.insert(0, ROOT)
    measure = getattr(importlib.import_module(module), name)  # this tree's tool, which imports perf and repro
    sys.path[:1] = [tree, os.path.join(tree, "src")]  # only when it measures: that side's
    print(json.dumps(measure(**json.loads(kwargs_json))))
    return 0


class KernelHooks:
    """While entered, each kernel function named in ``hooks`` calls
    ``hooks[name](the kernel's own, *args)``: ``heappush`` (of
    ``repro.sim.core`` and ``repro.sim.resources``, the only modules that
    push, as ``test_ties`` checks), ``heappop``, ``heapwithdraw`` (a
    timer taken back), and the same-instant queue's ``append`` and
    ``popleft``. A hook a kernel lacks is not bound (a BASE older than its
    function). Build it before a tracer starts: its import is then done,
    and the frames it adds are this file's."""

    def __init__(self, **hooks):
        from repro.sim import core, resources

        assert resources.heappush is core.heappush
        queue = getattr(core, "_Queue", None)  # absent before the kernel had one
        withdraw = core if hasattr(core, "heapwithdraw") else None  # likewise
        owners = {"heappush": (core, resources), "heappop": (core,), "heapwithdraw": (withdraw,),
                  "append": (queue,), "popleft": (queue,)}
        self.bindings = [(owner, name, getattr(owner, name), hook) for name, hook in hooks.items()
                         for owner in owners[name] if owner is not None]

    def __enter__(self):
        for owner, name, kernel, hook in self.bindings:
            setattr(owner, name, lambda *args, hook=hook, kernel=kernel: hook(kernel, *args))
        return self

    def __exit__(self, *_exc):
        for owner, name, kernel, _hook in self.bindings:
            setattr(owner, name, kernel)


def lines(tree, package):
    """Newlines in the ``.py`` files under ``tree``'s ``package`` directory: what ``make loc`` counts."""
    return sum(path.read_bytes().count(b"\n") for path in pathlib.Path(tree, package).rglob("*.py"))


def loc(base=None):
    """``make loc``: lines under ``src/repro``, total and per package; with
    ``base``, at BASE too, and the difference."""
    packages = ["src/repro"] + sorted(path[len(ROOT) + 1:] for path in glob.glob(ROOT + "/src/repro/*/"))
    with base_tree(base) if base else contextlib.nullcontext() as tree:
        if tree:
            print("%6s %6s %6s  (base = %s)" % ("base", "here", "delta", base))
        for package in packages:
            here = lines(ROOT, package)
            if tree:
                was = lines(tree, package)
                print("%6d %6d %+6d  %s" % (was, here, here - was, package))
            else:
                print("%6d %s" % (here, package))
    return 0


def exact_verdict(table):
    """``make perf-exact``'s verdict on ``perf/compare.py``'s table: ``(holds,
    lines to print)``. It holds when there are exact rows and none is
    ``worse`` or, but for ``events_per_op``, ``(differs)``."""
    rows, failed = 0, []
    for line in table.splitlines():
        fields = line.split() + [""] * 6
        if fields[1] in EXACT:
            rows += 1
            if fields[5] == "worse" or (fields[1] != "events_per_op" and "(differs)" in line):
                failed.append("perf-exact: " + line)
    if failed or not rows:
        return False, failed
    return True, ["perf-exact: {} exact rows hold".format(rows)]


def perf_exact(base):
    """``make perf-exact``: the five workloads, 2 s each, at BASE and here;
    ``perf/compare.py``'s whole table, then :func:`exact_verdict`'s."""
    with base_tree(base) as tree, tempfile.TemporaryDirectory() as out:
        results = [os.path.join(out, name) for name in ("base.json", "head.json")]
        for where, result in zip((tree, ROOT), results):
            run(where, [sys.executable, "perf/run.py", "--seconds", "2", "--out", result])
        done = subprocess.run([sys.executable, "perf/compare.py"] + results, cwd=ROOT, capture_output=True, text=True)
    if done.returncode > 1:
        _fail(done)
    holds, lines = exact_verdict(done.stdout)
    print("\n".join([done.stdout.rstrip("\n")] + lines))
    return 0 if holds else 1


def faults_exact(base):
    """``make faults-exact``: CI's two sanitized fault-plan artefacts,
    written at BASE and here, compared byte for byte."""
    written = {}
    with base_tree(base) as tree, tempfile.TemporaryDirectory() as out:
        for label, where in (("base", tree), ("here", ROOT)):
            for name, plan in FAULT_PLANS.items():
                path = os.path.join(out, name + ".json")
                run(where, [sys.executable, "-m", "repro", "faults", *plan, "--json", path], REPRO_SANITIZE="1",
                    PYTHONPATH="src")
                written[label, name] = pathlib.Path(path).read_bytes()
    differing = [name for name in FAULT_PLANS if written["base", name] != written["here", name]]
    for name in differing:
        print("faults-exact: the {} artefact differs from {}'s".format(name, base))
    if differing:
        return 1
    print("faults-exact: both artefacts match {} byte for byte".format(base))
    return 0


def main(argv=None):
    """``loc [BASE]``, ``perf-exact BASE`` or ``faults-exact BASE`` (the
    Makefile checks BASE); ``--side`` is a side's process."""
    job, *args = sys.argv[1:] if argv is None else argv
    if job == SIDE:
        return _side(*args)
    return {"loc": loc, "perf-exact": perf_exact, "faults-exact": faults_exact}[job](*args)


if __name__ == "__main__":
    sys.exit(main())
