"""The run protocol: repetitions, output checks, metrics.

One workload runs in one process (so ``ru_maxrss`` is per workload): one
discarded warm-up repetition, then timed repetitions for ``--seconds``
of host time (about ten at the reference sizes on the reference
container), each on a freshly built testbed with ``gc.collect()`` in
between. Every repetition must produce the same digest over (events,
simulated time, ops, latency samples, counters) or the run fails as
nondeterministic.

Host timings are read against a yardstick. The reference container slows
by 20-40 % for minutes at a time (two back-to-back sets of runs of the
same commit had medians 40 % apart), which neither minima over
repetitions nor CPU time remove. So a fixed pure-Python workload that
uses nothing from ``src/`` runs before each repetition, each phase's
time is divided by it and multiplied by its reference duration, and the
reported time is the median of those: host seconds at reference speed.

A repetition has two timed phases: *set-up* (build the testbed, install
state, connect, warm-up ops, clients park on a barrier) and *measured*
(barrier released until the last op completes, or a fixed simulated
horizon on ``sparse-idle``).

With tracing on, one more repetition runs under ``cProfile``, set-up and
measured phase profiled separately; end-to-end metrics always come from
the untraced repetitions.
"""

import cProfile
import gc
import hashlib
import json
import resource
import statistics
import time
from contextlib import nullcontext
from heapq import heappop, heappush

from perf import layers, spec
from perf.api import CONN_SLAB
from perf.workloads import BASELINE_STACKS, BUILDERS

MIN_REPS = 3
#: What the yardstick takes on the reference container when it is quiet.
YARDSTICK_REF_S = 0.135
#: Counters that must stay zero on a clean network.
RECOVERY_COUNTERS = (
    "retransmits",
    "fast_retransmits",
    "syn_retransmits",
    "retransmitted_bytes",
    "aborts",
    "resets_received",
    "syn_dropped",
    "csum_drops",
    "fcs_drops",
    "link_down_drops",
    "dma_retries",
)


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = -(-len(sorted_values) * pct // 100)
    return sorted_values[max(rank, 1) - 1]


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it."""
    return 99 if samples >= 1000 else 90


def yardstick(n=200_000):
    """Host speed right now: seconds for a fixed workload shaped like the
    simulator's inner loop (heap pushes and pops, tuple ordering, dict
    traffic, integer arithmetic), garbage collector off so that the
    simulator's leftover heap does not count."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        heap = []
        seen = {}
        acc = 0
        for i in range(n):
            heappush(heap, ((i * 2654435761) % 1000003, i))
            acc += i & 0xFF
            seen[i & 0xFFF] = acc
            if len(heap) > 64:
                _, j = heappop(heap)
                acc ^= seen.get(j & 0xFFF, 0)
        return time.perf_counter() - started
    finally:
        gc.enable()


def run_rep(name, seed, sizes=None, profiles=(None, None)):
    """One repetition; returns plain data so the testbeds can be freed."""
    yard_s = yardstick()  # leaves the heap collected
    slab_base = CONN_SLAB.live
    CONN_SLAB.high_water = slab_base
    setup_profile, measured_profile = profiles

    started = time.perf_counter()
    with setup_profile or nullcontext():
        cells = BUILDERS[name](seed, **(sizes or {}))
    parked = time.perf_counter()
    with measured_profile or nullcontext():
        for cell in cells:
            cell.measure()
    finished = time.perf_counter()

    counters = {}
    extras = {}
    latencies = []
    per_cell = {}
    for cell in cells:
        for key, value in cell.counters().items():
            counters[key] = counters.get(key, 0) + value
        extras.update(cell.extras)
        latencies.extend(cell.latencies_ns)
        ordered = sorted(cell.latencies_ns)
        per_cell[cell.label] = {
            "p50_ns": percentile(ordered, 50) if ordered else 0,
            "events_per_op": cell.events / cell.ok if cell.ok else 0.0,
        }
    latencies.sort()
    to_reference = YARDSTICK_REF_S / yard_s
    rep = {
        "yardstick_s": yard_s,
        "raw_setup_s": parked - started,
        "raw_wall_s": finished - parked,
        "setup_s": (parked - started) * to_reference,
        "wall_s": (finished - parked) * to_reference,
        "events": sum(cell.events for cell in cells),
        "setup_events": sum(cell.setup_events for cell in cells),
        "sim_ns": sum(cell.sim_ns for cell in cells),
        "planned": sum(cell.planned for cell in cells),
        "ok": sum(cell.ok for cell in cells),
        "payload_bytes": sum(cell.payload_bytes for cell in cells),
        "latencies_ns": latencies,
        "counters": counters,
        "per_cell": per_cell,
        "extras": extras,
        "fpc_util_max": max(cell.fpc_util_max() for cell in cells),
        "slab_high_water": CONN_SLAB.high_water - slab_base,
    }
    rep["problems"] = check_outputs(rep)
    rep["digest"] = digest(rep)
    return rep


def check_outputs(rep):
    """What is wrong with a repetition's outputs (empty when nothing is).
    A repetition that scheduled frame drops must show them recovered;
    any other must not have needed recovery at all."""
    problems = []
    if rep["ok"] != rep["planned"]:
        problems.append("{} of {} ops failed or did not finish".format(
            rep["planned"] - rep["ok"], rep["planned"]))
    counters = rep["counters"]
    scheduled = rep["extras"].get("scheduled_drops")
    if scheduled:
        if counters["injections"] != scheduled:
            problems.append("{} of {} scheduled drops were injected".format(
                counters["injections"], scheduled))
        if not counters["retransmits"] or not counters["fast_retransmits"]:
            problems.append("loss did not exercise both RTO and fast retransmit")
    else:
        dirty = {key: counters[key] for key in RECOVERY_COUNTERS if counters.get(key)}
        if dirty:
            problems.append("recovery counters moved on a clean network: {}".format(dirty))
    return problems


def digest(rep):
    """SHA-256 over everything a repetition computes deterministically."""
    parts = [rep[key] for key in ("events", "setup_events", "sim_ns", "planned", "ok",
                                  "payload_bytes", "latencies_ns")]
    parts.append(sorted(rep["counters"].items()))
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def run_workload(name, seed, seconds, trace, import_s=0.0):
    """All repetitions of one workload. Returns the result record and,
    when tracing, ``{"profile", "layers"}``: the measured phase's raw
    profile and the per-layer tables of both phases (else None)."""
    warm = run_rep(name, seed)
    budget = seconds / 2 if trace else seconds
    timed = []
    began = time.perf_counter()
    while True:
        timed.append(run_rep(name, seed))
        elapsed = time.perf_counter() - began
        if len(timed) >= MIN_REPS and elapsed + elapsed / len(timed) > budget:
            break
    traced = tables = None
    if trace:
        profiles = (cProfile.Profile(), cProfile.Profile())
        traced = run_rep(name, seed, profiles=profiles)
        tables = [layers.fold(profile) for profile in profiles]

    reps = [warm] + timed + ([traced] if traced else [])
    problems = list(timed[0]["problems"])
    if len({rep["digest"] for rep in reps}) != 1:
        problems.append("nondeterministic: repetitions disagree on their digest")

    first = timed[0]
    walls = [rep["wall_s"] for rep in timed]
    wall_s = statistics.median(walls)
    host = {
        "setup_s": statistics.median(rep["setup_s"] for rep in timed),
        "wall_s": wall_s,
        "rep_spread_frac": (wall_s - min(walls)) / min(walls),
        "yardstick_s": statistics.median(rep["yardstick_s"] for rep in timed),
        "raw_wall_s": min(rep["raw_wall_s"] for rep in timed),
        "raw_setup_s": min(rep["raw_setup_s"] for rep in timed),
        "import_s": import_s,
        "install_s": min(rep["extras"].get("install_s", 0.0) for rep in timed),
        "install_rss_bytes": warm["extras"].get("install_rss_bytes", 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = len(first["latencies_ns"])
    op, why = spec.WORKLOADS[name]
    record = {
        "workload": name,
        "op": op,
        "why": why,
        "seed": seed,
        "repetitions": len(timed),
        "digest": first["digest"],
        "problems": problems,
        "attempted": first["planned"],
        "failed": first["planned"] - first["ok"],
        "samples": samples,
        "tail_percentile": "p{}".format(tail_percentile(samples)),
        "rep_spread_frac": host["rep_spread_frac"],
        "yardstick_s": host["yardstick_s"],
        "raw_wall_s": host["raw_wall_s"],
        "raw_setup_s": host["raw_setup_s"],
        "end_to_end": end_to_end(first, host),
        "per_layer": None,
    }
    if not trace:
        return record, None
    (setup_table, _), (table, stats) = tables
    record["per_layer"] = per_layer(first, host, traced, table, stats)
    return record, {
        "profile": profiles[1],
        "layers": {
            "measured": layer_rows(table, first["ok"]),
            "setup": layer_rows(setup_table, first["ok"]),
        },
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rep, host):
    lat = rep["latencies_ns"]
    ok = rep["ok"]
    values = {
        "setup_s": host["setup_s"],
        "wall_s": host["wall_s"],
        "peak_rss_mb": host["peak_rss_mb"],
        "events_per_op": rep["events"] / ok if ok else 0.0,
        "sim_lat_p50_us": percentile(lat, 50) / 1000.0 if lat else 0.0,
        "sim_lat_tail_us": percentile(lat, tail_percentile(len(lat))) / 1000.0 if lat else 0.0,
        "sim_goodput_mbps": rep["payload_bytes"] * 8000.0 / rep["sim_ns"],
        "ops_ok_frac": ok / rep["planned"],
    }
    return {name: _metric(values[name], unit) for name, unit, _b, _bound, _clock in spec.END_TO_END}


def layer_rows(table, ops):
    total = sum(row["self_s"] for row in table.values()) or 1.0
    return {
        layer: {
            "self_s": row["self_s"],
            "self_frac": row["self_s"] / total,
            "calls": row["calls"],
            "calls_per_op": row["calls"] / ops if ops else 0.0,
        }
        for layer, row in table.items()
    }


def per_layer(rep, host, traced, table, stats):
    """Every layer metric, from the traced repetition's measured phase
    and the public counters of an untraced one."""
    ops = rep["ok"] or 1
    sim_ms = rep["sim_ns"] / 1e6
    counters = rep["counters"]
    rows = layer_rows(table, ops)

    def calls(module, name):
        return layers.function_stats(stats, module, name)[0]

    xdp_calls, xdp_seconds = layers.function_stats(stats, "xdp/adapter", "handle")
    installed = rep["extras"].get("installed", 0)
    values = {}
    for layer in spec.LAYERS:
        values[layer + ".self_frac"] = rows[layer]["self_frac"]
        values[layer + ".calls_per_op"] = rows[layer]["calls_per_op"]
    values.update({
        "sim.core.ns_per_event": host["wall_s"] * 1e9 / rep["events"],
        "sim.core.timeouts_per_op": calls("sim/core", "timeout") / ops,
        "sim.core.events_per_sim_ms": rep["events"] / sim_ms,
        "sim.resources.store_ops_per_op":
            (calls("sim/resources", "put") + calls("sim/resources", "get")) / ops,
        "nfp.fpc.compute_calls_per_op": calls("nfp/fpc", "compute") / ops,
        "nfp.fpc.util_max": rep["fpc_util_max"],
        "nfp.dma.issues_per_op": counters["dma_ops"] / ops,
        "nfp.dma.retries": counters.get("dma_retries", 0),
        "flextoe.state.hb_publishes_per_sim_ms": calls("flextoe/state", "publish") / sim_ms,
        "flextoe.slab.install_us_per_conn":
            host["install_s"] * 1e6 / installed if installed else 0.0,
        "flextoe.slab.rss_per_conn_bytes":
            host["install_rss_bytes"] / installed if installed else 0.0,
        "flextoe.slab.high_water": rep["slab_high_water"],
        "control.plane.retransmits": counters.get("retransmits", 0),
        "control.plane.fast_retransmits": counters.get("fast_retransmits", 0),
        "control.plane.syn_retransmits": counters.get("syn_retransmits", 0),
        "faults.injections": counters["injections"],
        "net.frames_per_op": counters["frames"] / ops,
        "xdp.invocations": counters["xdp_invocations"],
        "xdp.us_per_pkt": xdp_seconds * 1e6 / xdp_calls if xdp_calls else 0.0,
        "perf.trace_overhead_x": traced["wall_s"] / host["wall_s"],
        "perf.rep_spread_frac": host["rep_spread_frac"],
        "perf.yardstick_s": host["yardstick_s"],
        "perf.import_s": host["import_s"],
        "perf.unmapped_frac": rows[layers.UNMAPPED]["self_frac"],
    })
    for stack, _add_host in BASELINE_STACKS:
        cell = rep["per_cell"].get(stack, {"p50_ns": 0, "events_per_op": 0.0})
        values["baselines.{}.sim_p50_us".format(stack)] = cell["p50_ns"] / 1000.0
        values["baselines.{}.events_per_op".format(stack)] = cell["events_per_op"]
    return {name: _metric(values[name], unit) for name, unit, _better in spec.per_layer()}
