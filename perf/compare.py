#!/usr/bin/env python3
"""Applies the bounds in ``BENCHMARK.json`` to two result files.

    python3 perf/compare.py A.json B.json

A and B are files written by ``perf/run.py --out`` (all workloads, or one).
One row per (workload, end-to-end metric) says how B stands against A:

``same``        B is within the metric's bound of A
``better``      B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  a host timing, and the spread between repetitions
                (``perf.rep_spread_frac``) of either side exceeds the
                bound, so the difference cannot be told from noise

The last column flags values that are not identical: simulated and
counted metrics are exact for a fixed seed, so two commits that should
behave alike must show no ``differs`` there. Exit status is 1 when any
row is ``worse``.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path):
    """``{workload: record}`` from a merged or single-workload file."""
    with open(path) as source:
        data = json.load(source)
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def verdict(metric, a, b, spread):
    """(verdict, signed share by which B is worse than A)."""
    if a == b:
        return "same", 0.0
    worse_by = (b - a) / abs(a) if a else float("inf")
    if metric["better"] == "higher":
        worse_by = -worse_by
    bound = metric["bound"]
    if metric["unit"] == "s" and spread > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(benchmark, records_a, records_b):
    """Rows ``(workload, metric, a, b, verdict, worse_by)`` for every
    pairing present on both sides."""
    rows = []
    for workload in records_a:
        if workload not in records_b:
            continue
        rec_a, rec_b = records_a[workload], records_b[workload]
        spread = max(rec_a.get("rep_spread_frac", 0.0), rec_b.get("rep_spread_frac", 0.0))
        for metric in benchmark["end_to_end"]:
            a = rec_a["end_to_end"][metric["name"]]["value"]
            b = rec_b["end_to_end"][metric["name"]]["value"]
            rows.append((workload, metric["name"], a, b) + verdict(metric, a, b, spread))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        benchmark = json.load(source)
    rows = compare(benchmark, load_records(argv[0]), load_records(argv[1]))
    if not rows:
        sys.stderr.write("no workload appears in both files\n")
        return 2
    print("{:16s} {:18s} {:>14s} {:>14s} {:>9s}  {}".format(
        "workload", "metric", "A", "B", "B worse", "verdict"))
    for workload, name, a, b, outcome, worse_by in rows:
        print("{:16s} {:18s} {:14.6g} {:14.6g} {:+8.2%}  {}{}".format(
            workload, name, a, b, worse_by, outcome, "" if a == b else "  (differs)"))
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
