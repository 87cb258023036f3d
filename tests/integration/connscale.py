"""Flow-group-sharded scale-out runs (``connscale``).

FlexTOE parallelizes the data path by *flow group*: connections are
partitioned, each partition is serviced independently, and nothing
crosses a partition boundary except through explicit merge points. This
scenario library (``test_shard_determinism.py`` holds its gates) applies
the same decomposition one level up, at testbed granularity: a scale-out
run is split into N *shards*, each an independent
:class:`~repro.harness.Testbed` in its own worker process, owning a
deterministic subset of the workload's shard-level flow groups.

Determinism
-----------

Shard-level flow groups are assigned round-robin by connection ordinal
(connection ``i`` belongs to group ``i % SHARD_GROUPS``); shard ``k`` of
``n`` owns every group ``g`` with ``g % n == k``. Because ownership is a
pure function of ``(ordinal, n_shards)``, every connection runs in
exactly one shard, and *which* shard never depends on timing. Each
shard's simulator is seeded with a pure function of the plan seed and
the shard index, so a shard's entire simulation — wire traffic included
— is a deterministic function of ``(seed, shard_index, n_shards)``:
repeated runs are byte-identical per shard.

Merged *semantic* counters (RPC completions, per-group install counts)
are sums over the global connection set, so they are additionally
invariant to ``n_shards``: shards=1 and shards=N agree exactly. Raw
event/time totals and wire digests are per-shard quantities — stable
across repeats, but not across different shard counts (each shard runs
its own handshake/ACK timeline).

Workers run serially by default: shards are CPU-bound pure-Python
simulations, so on a single-core host interleaving them buys nothing
and would muddy the per-shard RSS deltas the connscale scenarios chart.
"""

import gc
import json
import os
import subprocess
import sys
import time

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

#: Shard-level flow groups (the unit of workload partitioning). A
#: divisor-friendly constant: shard counts of 1/2/4/8/16 partition it
#: evenly.
SHARD_GROUPS = 16

#: Synthetic bulk-connection addressing: remote peers live in their own
#: /8 so they can never collide with testbed host addresses or active
#: connection tuples.
_BULK_IP_BASE = 11 << 24  # 11.0.0.0
_BULK_LOCAL_PORT = 9
_BULK_REMOTE_PORT = 40000

#: Buffer geometry for shard testbeds. Bulk connections share one small
#: host region (they carry no traffic — the point is state footprint);
#: active connections get real, if modest, circular buffers.
_BULK_BUFFER_BYTES = 4096
_ACTIVE_BUFFER_BYTES = 32 * 1024


def shard_seed(seed, shard_index):
    """Per-shard simulator seed: pure function of plan seed and shard."""
    return (seed * 1_000_003 + shard_index * 7919 + 1) & 0x7FFFFFFF


def owner_of_group(group, n_shards):
    return group % n_shards


def group_of_ordinal(ordinal):
    return ordinal % SHARD_GROUPS


def _vm_rss_kb():
    """Current resident set (kB). VmRSS, not ru_maxrss: deltas matter."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux
        pass
    if resource is not None:  # pragma: no cover - non-Linux fallback
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return 0  # pragma: no cover


def _run_shard(params):
    """One shard's whole life: build, bulk-install, drive actives, report.

    Runs inside a worker process (or inline with ``in_process=True``).
    Returns a plain dict: everything here crosses a pipe.
    """
    from repro.apps import EchoServer
    from repro.apps.rpc import ClosedLoopClient
    from repro.control import ControlPlaneConfig
    from repro.control.recovery import SHADOW_SLAB
    from repro.flextoe.state import CONN_SLAB
    from repro.harness import Testbed
    from tests.integration.test_golden_digests import WireTap

    shard_index = params["shard_index"]
    n_shards = params["n_shards"]
    total_conns = params["total_conns"]
    actives = params["actives"]
    n_requests = params["n_requests"]

    start_wall = time.perf_counter()
    config = ControlPlaneConfig(
        rx_buffer_size=_ACTIVE_BUFFER_BYTES,
        tx_buffer_size=_ACTIVE_BUFFER_BYTES,
        snapshot_interval_ns=0,  # O(conns) per tick: off for scale runs
    )
    bed = Testbed(seed=shard_seed(params["seed"], shard_index))
    server = bed.add_flextoe_host("server", cp_kwargs={"config": config})
    client = bed.add_flextoe_host("client", cp_kwargs={"config": config})
    bed.seed_all_arp()
    tap = WireTap(bed.sim)
    bed.switch.faults = tap

    # -- active connections: real handshakes, closed-loop echo RPCs ------
    my_actives = [
        a for a in range(actives)
        if owner_of_group(group_of_ordinal(a), n_shards) == shard_index
    ]
    rpcs = []
    waiters = []
    for a in my_actives:
        echo = EchoServer(server.new_context(a % 20), 7000 + a, request_size=64)
        bed.sim.process(echo.run(), name="echo%d" % a)
        rpc = ClosedLoopClient(client.new_context(a % 20), server.ip, 7000 + a, 64, 64, warmup=1)
        waiters.append(bed.sim.process(rpc.run(n_requests), name="rpc%d" % a))
        rpcs.append((a, rpc))

    # -- bulk connections: quiescent slab-backed offloads ----------------
    # Installed via the recovery manager's adoption path: full data-path
    # state (lookup, conn table, shadow) but no per-tick control-plane
    # servicing. All of them share one host region — footprint is the
    # experiment, not payload.
    recovery = server.control_plane.enable_recovery()
    bulk_ctx = 500
    server.nic.register_context(bulk_ctx, capacity=4)
    region = server.machine.memory.alloc(_BULK_BUFFER_BYTES)
    bulk_buffer = (region, region.addr, _BULK_BUFFER_BYTES)
    my_bulk = [
        i for i in range(total_conns)
        if owner_of_group(group_of_ordinal(i), n_shards) == shard_index
    ]
    bulk_by_group = {}
    gc.collect()
    rss_before_kb = _vm_rss_kb()
    for i in my_bulk:
        four = (server.ip, _BULK_IP_BASE + i, _BULK_LOCAL_PORT, _BULK_REMOTE_PORT)
        recovery.adopt_offloaded(
            four_tuple=four,
            peer_mac=client.mac,
            local_mac=server.mac,
            iss=1,
            irs=1,
            context_id=bulk_ctx,
            opaque=None,
            rx_buffer=bulk_buffer,
            tx_buffer=bulk_buffer,
        )
        group = group_of_ordinal(i)
        bulk_by_group[group] = bulk_by_group.get(group, 0) + 1
    gc.collect()
    rss_after_kb = _vm_rss_kb()

    if waiters:
        bed.sim.run(until=bed.sim.all_of(waiters))
    completed = sum(rpc.completed for _, rpc in rpcs)
    if completed != len(my_actives) * n_requests:
        raise AssertionError(
            "shard %d/%d incomplete: %d RPCs" % (shard_index, n_shards, completed)
        )
    rpcs_by_group = {}
    for a, rpc in rpcs:
        group = group_of_ordinal(a)
        rpcs_by_group[group] = rpcs_by_group.get(group, 0) + rpc.completed

    counters = {
        "rpcs": completed,
        "bulk_installed": len(my_bulk),
        "active_established": len(my_actives),
        "bulk_by_group": {str(g): bulk_by_group[g] for g in sorted(bulk_by_group)},
        "rpcs_by_group": {str(g): rpcs_by_group[g] for g in sorted(rpcs_by_group)},
    }
    return {
        "shard": shard_index,
        "n_shards": n_shards,
        "events": bed.sim.processed_events,
        "sim_ns": bed.sim.now,
        "wall_s": time.perf_counter() - start_wall,
        "wire_frames": len(tap.lines),
        "wire_digest": tap.digest(),
        "counters": counters,
        "bulk_conns": len(my_bulk),
        "rss_before_kb": rss_before_kb,
        "rss_after_kb": rss_after_kb,
        "conn_slab_live": CONN_SLAB.live,
        "shadow_slab_live": SHADOW_SLAB.live,
        "conn_slab_bytes_per_slot": CONN_SLAB.bytes_per_slot(),
        "shadow_slab_bytes_per_slot": SHADOW_SLAB.bytes_per_slot(),
    }


def _worker_main():  # pragma: no cover - exercised in worker processes
    """Subprocess entry: shard params as JSON on stdin, result on stdout.

    A plain subprocess running this file by path (not ``multiprocessing``
    spawn), so the worker never re-imports the parent's ``__main__``
    module — connscale runs identically under pytest and from scripts.
    """
    params = json.load(sys.stdin)
    try:
        result = _run_shard(params)
        json.dump({"status": "ok", "result": result}, sys.stdout)
    except BaseException as exc:
        json.dump(
            {"status": "error", "error": "{}: {}".format(type(exc).__name__, exc)},
            sys.stdout,
        )


def _merge_counters(merged, counters):
    for key, value in counters.items():
        if isinstance(value, dict):
            bucket = merged.setdefault(key, {})
            for sub, count in value.items():
                bucket[sub] = bucket.get(sub, 0) + count
        else:
            merged[key] = merged.get(key, 0) + value


def merge_results(shard_results):
    """Deterministic merge, in stable shard order."""
    ordered = sorted(shard_results, key=lambda r: r["shard"])
    counters = {}
    events = 0
    sim_ns = 0
    bulk_total = 0
    rss_delta_kb = 0
    worker_wall_s = 0.0
    for result in ordered:
        _merge_counters(counters, result["counters"])
        events += result["events"]
        sim_ns = max(sim_ns, result["sim_ns"])
        bulk_total += result["bulk_conns"]
        rss_delta_kb += max(0, result["rss_after_kb"] - result["rss_before_kb"])
        worker_wall_s += result["wall_s"]
    rss_per_conn = (rss_delta_kb * 1024.0 / bulk_total) if bulk_total else 0.0
    return {
        "n_shards": ordered[0]["n_shards"] if ordered else 0,
        "counters": counters,
        "events": events,
        "sim_ns": sim_ns,
        "bulk_conns": bulk_total,
        "rss_delta_kb": rss_delta_kb,
        "rss_per_conn_bytes": round(rss_per_conn, 1),
        "worker_wall_s": round(worker_wall_s, 4),
        "wire_digests": [r["wire_digest"] for r in ordered],
        "shards": ordered,
    }


def run_connscale(
    total_conns,
    shards,
    actives=8,
    n_requests=5,
    seed=11,
    in_process=False,
):
    """Run one connscale plan across ``shards`` workers; returns the
    merged result dict (see :func:`merge_results`).

    ``in_process=True`` runs every shard inline in this process —
    useful under debuggers and for tests that want to poke the shard
    internals; RSS deltas then share one heap, so scale numbers should
    come from the default (process-per-shard) mode.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if SHARD_GROUPS % shards:
        raise ValueError(
            "shards must divide {} shard-level groups".format(SHARD_GROUPS)
        )
    plans = [
        {
            "shard_index": k,
            "n_shards": shards,
            "total_conns": total_conns,
            "actives": actives,
            "n_requests": n_requests,
            "seed": seed,
        }
        for k in range(shards)
    ]
    results = []
    if in_process:
        for params in plans:
            results.append(_run_shard(params))
        return merge_results(results)
    for params in plans:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            input=json.dumps(params),
            capture_output=True,
            text=True,
            env=_worker_env(),
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(
                "connscale shard {} died (exit {}): {}".format(
                    params["shard_index"], proc.returncode, proc.stderr.strip()[-500:]
                )
            )
        payload = json.loads(proc.stdout)
        if payload.get("status") != "ok":
            raise RuntimeError(
                "connscale shard {} failed: {}".format(
                    params["shard_index"], payload.get("error")
                )
            )
        results.append(payload["result"])
    return merge_results(results)


def _worker_env():
    """The parent's environment plus a PYTHONPATH that resolves what the
    worker imports: ``repro`` from wherever this process found it
    (installed, or PYTHONPATH=src) and ``tests`` from this checkout."""
    import repro

    env = dict(os.environ)
    here = os.path.dirname(os.path.abspath(__file__))
    roots = [os.path.dirname(os.path.dirname(here)), os.path.dirname(os.path.dirname(repro.__file__))]
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(roots + ([existing] if existing else []))
    return env


if __name__ == "__main__":
    _worker_main()
