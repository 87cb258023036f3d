"""What the benchmark measures: workloads, metrics, bounds, interactions.

Pure data (no ``repro`` import), shared by the runner, ``compare.py``,
the tests and ``BENCHMARK.json`` — :func:`benchmark_json` is that file's
content, and a test keeps the two equal. ``BENCHMARK.json`` admits only
its six contract keys, so the default seed and the map from each layer
metric to the end-to-end metric it should move live here.
"""

DEFAULT_SEED = 20220404
#: How long one invocation spends on timed repetitions (host seconds).
RUN_SECONDS = 18
COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]

#: name -> (op, why). The why is recorded in every result file.
WORKLOADS = {
    "echo-small": (
        "64 B echo RPC",
        "smallest messages on a clean network: pure fast path, so per-segment pipeline cost "
        "(sim.core, sim.resources, flextoe.stages) is all there is",
    ),
    "large-loss": (
        "64 B -> 16 KB RPC",
        "MSS trains with scheduled frame loss: out-of-order handling, fast retransmit and RTO "
        "run the same stages off the fast path, so a fast-path gain that costs recovery shows",
    ),
    "sparse-idle": (
        "64 B echo RPC, 4 ms think time",
        "20 000 quiescent connections and 8 sparse ones for 200 simulated ms: idle-timer events "
        "and per-connection state dominate (the shape of tier-1's slow tests)",
    ),
    "conn-churn": (
        "connect -> 256 B echo -> close",
        "connection lifecycles behind the asm XDP firewall: handshake, teardown, slab allocation "
        "and XDP-per-packet (control.plane, flextoe.slab, host, xdp) matter here and nowhere else",
    ),
    "baseline-stacks": (
        "64 B echo RPC",
        "Linux, TAS and Chelsio pairs in sequence: the FlexTOE data path is idle and baselines, "
        "proto and net carry it, which is what the paper-figure suite mostly pays for",
    ),
}

#: End-to-end metrics: (name, unit, better, bound, clock). ``clock`` says
#: whose time the number is in: "host" is noisy and machine-dependent,
#: "sim" and "count" are exact for a fixed seed. Host times are scaled by
#: the harness's yardstick; their bounds are what this container's drift
#: needed before that (raw best-of-N wall_s spread by up to 16 % within a
#: set of ten runs, and set medians lay 40 % apart).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "host"),
    ("wall_s", "s", "lower", 0.25, "host"),
    ("peak_rss_mb", "MB", "lower", 0.05, "host"),
    ("events_per_op", "events/op", "lower", 0.005, "count"),
    ("sim_lat_p50_us", "sim_us", "lower", 0.01, "sim"),
    ("sim_lat_tail_us", "sim_us", "lower", 0.01, "sim"),
    ("sim_goodput_mbps", "sim_Mbit/s", "higher", 0.01, "sim"),
    ("ops_ok_frac", "frac", "higher", 0.0001, "count"),
)

LAYERS = (
    "sim.core",
    "sim.resources",
    "nfp.fpc",
    "nfp.dma",
    "nfp.other",
    "flextoe.stages",
    "flextoe.datapath",
    "flextoe.proto_logic",
    "flextoe.state",
    "flextoe.slab",
    "flextoe.sched",
    "libtoe",
    "host",
    "control.plane",
    "control.recovery",
    "proto",
    "net",
    "xdp",
    "baselines",
    "faults",
    "apps",
    "python",
    "misc",
    "perf",
)

#: Layer metrics beyond ``<layer>.self_frac`` / ``<layer>.calls_per_op``:
#: (name, unit, better).
LAYER_EXTRAS = (
    ("sim.core.ns_per_event", "ns", "lower"),
    ("sim.core.timeouts_per_op", "1/op", "lower"),
    ("sim.core.events_per_sim_ms", "1/sim_ms", "lower"),
    ("sim.resources.store_ops_per_op", "1/op", "lower"),
    ("nfp.fpc.compute_calls_per_op", "1/op", "lower"),
    ("nfp.fpc.util_max", "frac", "lower"),
    ("nfp.dma.issues_per_op", "1/op", "lower"),
    ("nfp.dma.retries", "count", "lower"),
    ("flextoe.state.hb_publishes_per_sim_ms", "1/sim_ms", "lower"),
    ("flextoe.slab.install_us_per_conn", "us", "lower"),
    ("flextoe.slab.rss_per_conn_bytes", "bytes", "lower"),
    ("flextoe.slab.high_water", "count", "lower"),
    ("control.plane.retransmits", "count", "lower"),
    ("control.plane.fast_retransmits", "count", "lower"),
    ("control.plane.syn_retransmits", "count", "lower"),
    ("faults.injections", "count", "lower"),
    ("net.frames_per_op", "1/op", "lower"),
    ("xdp.invocations", "count", "lower"),
    ("xdp.us_per_pkt", "us", "lower"),
    ("baselines.linux.sim_p50_us", "sim_us", "lower"),
    ("baselines.tas.sim_p50_us", "sim_us", "lower"),
    ("baselines.chelsio.sim_p50_us", "sim_us", "lower"),
    ("baselines.linux.events_per_op", "events/op", "lower"),
    ("baselines.tas.events_per_op", "events/op", "lower"),
    ("baselines.chelsio.events_per_op", "events/op", "lower"),
    ("perf.trace_overhead_x", "x", "lower"),
    ("perf.rep_spread_frac", "frac", "lower"),
    ("perf.yardstick_s", "s", "lower"),
    ("perf.import_s", "s", "lower"),
    ("perf.unmapped_frac", "frac", "lower"),
)

#: Written down before measuring: which end-to-end metric each layer
#: metric should move, on which workload. ``(layer metrics, prediction)``.
INTERACTIONS = (
    (
        ("sim.core.ns_per_event", "sim.core.self_frac", "sim.resources.self_frac", "python.self_frac"),
        "wall_s on every workload (the kernel is ~45 % of self time everywhere; a kernel gain "
        "must show on all five)",
    ),
    (
        ("sim.core.timeouts_per_op", "nfp.fpc.compute_calls_per_op", "flextoe.stages.calls_per_op"),
        "events_per_op then wall_s on echo-small and large-loss; no change on sparse-idle and "
        "baseline-stacks",
    ),
    (
        ("flextoe.state.hb_publishes_per_sim_ms", "sim.core.events_per_sim_ms"),
        "events_per_op and wall_s on sparse-idle (large) and large-loss (some: recovery waits "
        "are idle time); under 2 % on echo-small",
    ),
    (
        ("flextoe.slab.install_us_per_conn",),
        "setup_s on sparse-idle",
    ),
    (
        ("flextoe.slab.rss_per_conn_bytes", "flextoe.slab.high_water"),
        "peak_rss_mb on sparse-idle and conn-churn",
    ),
    (
        ("control.plane.self_frac", "host.self_frac", "control.plane.calls_per_op"),
        "wall_s and events_per_op on conn-churn",
    ),
    (
        ("xdp.us_per_pkt", "xdp.invocations"),
        "their product moves wall_s on conn-churn only",
    ),
    (
        ("control.plane.retransmits", "control.plane.fast_retransmits", "faults.injections",
         "flextoe.proto_logic.calls_per_op"),
        "sim_goodput_mbps and sim_lat_tail_us on large-loss; 0 / unchanged elsewhere",
    ),
    (
        ("baselines.self_frac", "baselines.linux.sim_p50_us", "baselines.tas.sim_p50_us",
         "baselines.chelsio.sim_p50_us", "baselines.linux.events_per_op",
         "baselines.tas.events_per_op", "baselines.chelsio.events_per_op", "proto.self_frac",
         "net.self_frac"),
        "wall_s and sim_lat_p50_us on baseline-stacks; proto/net move echo-small by at most "
        "their ~3 % share",
    ),
    (
        ("nfp.fpc.util_max",),
        "sim_lat_tail_us then sim_goodput_mbps (modelled occupancy: latency rises before "
        "goodput stops rising); host time is untouched by it",
    ),
    (
        ("perf.trace_overhead_x", "perf.rep_spread_frac", "perf.yardstick_s", "perf.import_s",
         "perf.unmapped_frac"),
        "nothing; they say whether a run can be trusted",
    ),
)


def per_layer():
    """Every layer metric as (name, unit, better), in report order."""
    metrics = []
    for layer in LAYERS:
        metrics.append((layer + ".self_frac", "frac", "lower"))
        metrics.append((layer + ".calls_per_op", "1/op", "lower"))
    return metrics + list(LAYER_EXTRAS)


def moves(metric):
    """The prediction recorded for a layer metric, or None."""
    for names, prediction in INTERACTIONS:
        if metric in names:
            return prediction
    return None


def benchmark_json():
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_op, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _clock in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in per_layer()
        ],
    }
