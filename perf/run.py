#!/usr/bin/env python3
"""The layered benchmark: one command, every metric by name.

    python3 perf/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]

Without ``--workload`` every workload runs, each in a fresh subprocess,
and the merged results go to ``--out`` (default ``perf/out/results.json``,
the input of ``perf/compare.py``). With ``--workload`` this process runs
that workload, prints every metric with its unit and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics, or with ``--trace 1`` the per-layer ones, which are
also written with the raw profile to ``perf/out/<workload>.layers.json``
and ``.pstats``. Exit status is 1 when outputs are wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, help="feeds every testbed, fault plan and client RNG")
    parser.add_argument("--seconds", type=float, help="host seconds of timed repetitions")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add a repetition under cProfile and report per-layer metrics")
    parser.add_argument("--out", help="write the full result record(s) here as JSON")
    return parser.parse_args(argv)


def run_one(args, spec):
    began = time.perf_counter()
    from perf import harness  # imports the simulator: this is perf.import_s
    import_s = time.perf_counter() - began

    if args.workload not in spec.WORKLOADS:
        sys.exit("unknown workload {!r}; known: {}".format(args.workload, ", ".join(spec.WORKLOADS)))
    record, traced = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s)

    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        base = os.path.join(OUT_DIR, args.workload)
        traced["profile"].dump_stats(base + ".pstats")
        table = {
            "workload": record["workload"],
            "seed": record["seed"],
            "ops": record["attempted"] - record["failed"],
            "layers": traced["layers"],
            "metrics": {
                name: dict(metric, moves=spec.moves(name))
                for name, metric in record["per_layer"].items()
            },
        }
        with open(base + ".layers.json", "w") as out:
            json.dump(table, out, indent=1)
    if args.out:
        with open(args.out, "w") as out:
            json.dump(record, out, indent=1)

    print("{} [{}] seed {}: {} repetitions, {} ops, latency tail is {} of {} samples".format(
        record["workload"], record["op"], record["seed"], record["repetitions"],
        record["attempted"], record["tail_percentile"], record["samples"]))
    for problem in record["problems"]:
        print("  WRONG: " + problem)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    for name, metric in metrics.items():
        print("  {:42s} {:>16.6g} {}".format(name, metric["value"], metric["unit"]))
    correct = not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args, spec):
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for name in spec.WORKLOADS:
        part = os.path.join(OUT_DIR, name + ".result.json")
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", part]
        status |= subprocess.run(command, cwd=ROOT).returncode
        if os.path.exists(part):
            with open(part) as done:
                results["workloads"][name] = json.load(done)
            os.remove(part)
    out = args.out or os.path.join(OUT_DIR, "results.json")
    with open(out, "w") as merged:
        json.dump(results, merged, indent=1)
    print("results written to " + os.path.relpath(out))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perf/run.py: no src/repro beside perf/: nothing to measure\n")
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perf import spec

    if args.seed is None:
        args.seed = spec.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
