"""``make ties``: how far same-instant event order alone moves each
simulated metric, here and at BASE (ROADMAP item 12's envelope).

The kernel's heap orders entries by (time, priority, ``_seq``): events due
at the same instant and priority run in the order they were pushed, one
of many orders the model does not prefer. :func:`read` runs one
repetition of a ``perf/`` workload at its benchmark size per *tie seed*
``s``: seed 0 is that FIFO order; for ``s > 0`` the judge's kernel hooks
key every heap push and same-instant queue entry (then pushed) by
``splitmix64(_seq, s)`` — a fixed pseudo-random order among ties, and
nothing in the kernel knows. Per workload and metric it prints seed 0's
value and the envelope (min..max over seeds 1..K) on both trees, and flags
this tree's values outside BASE's envelope. A table to read, not a gate:
exit status 2 only when a run fails. Run as ``python3 -m tests.tools.ties``.
"""

import argparse
import heapq
import sys

from tests.tools import judge

METRICS = ("sim_lat_p50_us", "sim_lat_tail_us", "sim_goodput_mbps", "ops_ok_frac")
MASK = (1 << 64) - 1


def splitmix64(seq, seed):
    """SplitMix64's output for state ``seq + seed * golden``: a bijection
    of 64-bit ``seq`` for each ``seed``, so no two entries ever tie."""
    z = (seq + seed * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def tie_order(seed):
    """Kernel hooks under which every heap push and same-instant queue
    entry is pushed keyed by tie seed ``seed`` (0: nothing rebound)."""
    if not seed:
        return judge.KernelHooks()

    def push(kernel_push, heap, entry):
        when, priority, seq, event = entry
        kernel_push(heap, (when, priority, splitmix64(seq, seed), event))

    def append(_kernel_append, queued, entry):
        push(heapq.heappush, queued.sim._heap, entry)

    return judge.KernelHooks(heappush=push, append=append)


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


def read_seeds(workload, seeds):
    """:func:`read` for tie seeds 0..``seeds``: one side's measure."""
    return [read(workload, seed) for seed in range(seeds + 1)]


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
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", choices=judge.WORKLOADS, help="one workload (default: all five)")
    parser.add_argument("--seeds", type=int, default=8, help="K: tie seeds 1..K besides seed 0")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    with judge.base_tree(args.base) as base:
        print("same-instant order envelopes, base = {}".format(args.base))
        for workload in [args.workload] if args.workload else judge.WORKLOADS:
            report(workload, *(judge.side(tree, read_seeds, workload=workload, seeds=args.seeds)
                               for tree in (base, judge.ROOT)), args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
