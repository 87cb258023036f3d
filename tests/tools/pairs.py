"""``make perf-pairs``: is one host-time metric better here than at BASE?

Host timings on a shared machine drift by tens of percent over minutes,
so one run of each side says nothing. This runs N pairs of ``perf/run.py
--workload W`` at BASE and here, alternating which side runs first, and
reads one of ``BENCHMARK.json``'s end-to-end metrics; a pair is won by the
side with the better value (a tie by neither). The change **gains** when
it wins at least nine tenths of the pairs *and* the medians differ by more
than the distance between the quartiles of BASE's own runs; the mirror
image is a **regression**; anything else, and any verdict on fewer than
``MIN_PAIRS`` pairs, is **unresolved** — not "unchanged". Exit status 0
on a gain, 1 otherwise, 2 when a run fails. Run as
``python3 -m tests.tools.pairs``.
"""

import argparse
import json
import os
import statistics
import sys

from tests.tools import judge

#: Below this many pairs, nine tenths of them is too few wins to call.
MIN_PAIRS = 10


def measure(tree, workload, metric, seconds):
    """One ``perf/run.py`` process in ``tree`` (it exits 1 on wrong outputs); the metric's value."""
    command = [sys.executable, "perf/run.py", "--workload", workload, "--seconds", str(seconds)]
    return judge.read(tree, command)["metrics"][metric]["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(base, here, lower_is_better):
    """``(verdict, wins here, wins base)`` by the rule in the module docstring."""
    sign = 1 if lower_is_better else -1
    here_wins = sum(sign * h < sign * b for b, h in zip(base, here))
    base_wins = sum(sign * b < sign * h for b, h in zip(base, here))
    q1, base_median, q3 = quartiles(base)
    gap = sign * (base_median - quartiles(here)[1])  # positive: here is better
    needed = 0.9 * len(base)
    if len(base) < MIN_PAIRS:
        return "unresolved", here_wins, base_wins
    if here_wins >= needed and gap > q3 - q1:
        return "gain", here_wins, base_wins
    if base_wins >= needed and -gap > q3 - q1:
        return "regression", here_wins, base_wins
    return "unresolved", here_wins, base_wins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args(argv)
    with open(os.path.join(judge.ROOT, "BENCHMARK.json")) as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    if args.metric not in better:
        parser.error("metric must be one of: " + ", ".join(better))
    with judge.base_tree(args.base) as base:
        trees = {"base": base, "here": judge.ROOT}
        runs = {"base": [], "here": []}
        print("{} {} on {}: {} pairs, --seconds {:g}, base = {}".format(
            args.metric, "(%s is better)" % better[args.metric], args.workload, args.pairs, args.seconds, args.base))
        print("{:>4}  {:>12} {:>12}  {}".format("pair", "base", "here", "first"))
        for pair in range(args.pairs):
            order = ("base", "here") if pair % 2 == 0 else ("here", "base")
            for side in order:
                runs[side].append(measure(trees[side], args.workload, args.metric, args.seconds))
            print("{:>4}  {:>12.6g} {:>12.6g}  {}".format(pair + 1, runs["base"][-1], runs["here"][-1], order[0]), flush=True)
    outcome, here_wins, base_wins = verdict(runs["base"], runs["here"], better[args.metric] == "lower")
    spread = {side: quartiles(runs[side]) for side in ("base", "here")}
    print("{:>4}  {:>12} {:>12} {:>12}".format("", "q1", "median", "q3"))
    for side, (q1, median, q3) in spread.items():
        print("{:>4}  {:>12.6g} {:>12.6g} {:>12.6g}".format(side, q1, median, q3))
    q1, base_median, q3 = spread["base"]
    print("here wins {} of {}, base wins {}; medians {:+.1%} of base; base's inter-quartile distance {:.1%}: {}".format(
        here_wins, args.pairs, base_wins, (spread["here"][1] - base_median) / base_median,
        (q3 - q1) / base_median, outcome))
    return 0 if outcome == "gain" else 1


if __name__ == "__main__":
    sys.exit(main())
