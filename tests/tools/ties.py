"""``make ties``: how far same-instant event order alone moves each
simulated metric, here and at BASE (ROADMAP item 12's envelope).

The kernel's heap orders entries by (time, priority, ``_seq``): events due
at the same instant and priority run in the order they were pushed, one
of many orders the model does not prefer. This runs one repetition of a
``perf/`` workload at its benchmark size per *tie seed* ``s``: seed 0 is
that FIFO order; seed ``s > 0`` gives every heap entry the key
``splitmix64(_seq, s)`` in place of ``_seq`` — a fixed pseudo-random
order among ties, time and priority untouched. Nothing in the kernel
knows: within its own process this rebinds the ``heappush`` that
``repro.sim.core`` and ``repro.sim.resources`` (the only modules under
``src/repro`` that push, a test says) call. Once on a ``git archive`` of
BASE and once on this tree, each in a process of its own.

It prints, per workload and simulated metric, seed 0's value and the
envelope (min..max over seeds 1..K) on both trees, and flags each of this
tree's values outside BASE's envelope: a change whose simulated numbers
move within that envelope moved them by no more than tie order does.
Standard library only; nothing under ``perf/`` is edited. A table to
read, not a gate: exit status 2 only when a run fails to run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("echo-small", "large-loss", "sparse-idle", "conn-churn", "baseline-stacks")
METRICS = ("sim_lat_p50_us", "sim_lat_tail_us", "sim_goodput_mbps", "ops_ok_frac")
MASK = (1 << 64) - 1


def splitmix64(seq, seed):
    """SplitMix64's output for state ``seq + seed * golden``: a bijection
    of 64-bit ``seq`` for each ``seed``, so no two entries ever tie."""
    z = (seq + seed * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


@contextmanager
def tie_order(seed):
    """Every kernel heap push, for the duration, keyed by tie seed ``seed``
    (0: ``_seq`` itself, today's order)."""
    from repro.sim import core, resources

    kernel_push = core.heappush
    assert resources.heappush is kernel_push

    def push(heap, entry):
        when, priority, seq, event = entry
        kernel_push(heap, (when, priority, splitmix64(seq, seed) if seed else seq, event))

    core.heappush = resources.heappush = push
    try:
        yield
    finally:
        core.heappush = resources.heappush = kernel_push


def read(workload, seed, sizes=None):
    """One repetition of ``workload`` under tie seed ``seed``: its simulated
    metrics, its harness digest and what its output checks found."""
    from perf import harness, spec

    with tie_order(seed):
        rep = harness.run_rep(workload, spec.DEFAULT_SEED, sizes)
    e2e = harness.end_to_end(rep, {"setup_s": 0.0, "wall_s": 0.0, "peak_rss_mb": 0.0})
    return {
        "metrics": {name: e2e[name]["value"] for name in METRICS},
        "digest": rep["digest"],
        "problems": rep["problems"],
    }


def read_in(tree, workload, seeds):
    """:func:`read` for seeds 0..``seeds`` in a process of its own on ``tree``."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--read", tree, "--workload", workload, "--seeds", str(seeds)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def envelope(readings, name):
    values = [reading["metrics"][name] for reading in readings[1:]]
    return min(values), max(values)


def report(workload, base, here, seeds):
    print("{}: seed 0 and min..max over tie seeds 1..{}; runs with failed checks: base {}, here {}".format(
        workload, seeds, sum(bool(r["problems"]) for r in base), sum(bool(r["problems"]) for r in here)))
    line = "  {:<18} {:>12} {:>23}   {:>12} {:>23}  {}"
    print(line.format("metric", "base s0", "base envelope", "here s0", "here envelope", "outside base's envelope"))
    for name in METRICS:
        low, high = envelope(base, name)
        here_low, here_high = envelope(here, name)
        here_s0 = here[0]["metrics"][name]
        outside = [label for label, value in (("s0", here_s0), ("min", here_low), ("max", here_high))
                   if not low <= value <= high]
        print(line.format(
            name, "%.6g" % base[0]["metrics"][name], "%.6g..%.6g" % (low, high),
            "%.6g" % here_s0, "%.6g..%.6g" % (here_low, here_high), " ".join(outside) or "-"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git ref of the parent side")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all five)")
    parser.add_argument("--seeds", type=int, default=8, help="K: tie seeds 1..K besides seed 0")
    parser.add_argument("--read", metavar="TREE", help="(internal) read TREE in this process, print JSON")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.read:
        sys.dont_write_bytecode = True
        sys.path[:0] = [args.read, os.path.join(args.read, "src")]
        json.dump([read(args.workload, seed) for seed in range(args.seeds + 1)], sys.stdout)
        return 0
    if not args.base:
        parser.error("--base is required")
    tmp = tempfile.mkdtemp(prefix="ties-")
    try:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        print("same-instant order envelopes, base = {}".format(args.base))
        for workload in [args.workload] if args.workload else WORKLOADS:
            report(workload, read_in(tmp, workload, args.seeds), read_in(ROOT, workload, args.seeds), args.seeds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
