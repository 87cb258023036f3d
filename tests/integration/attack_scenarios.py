"""Goodput-under-attack scenarios: benign load vs adversarial traffic.

Each scenario runs the same seeded testbed three times —

* **baseline** — benign load only (the no-attack goodput yardstick);
* **off** — attack mixed in, every defense disabled (the legacy
  accept-on-SYN-ACK control plane, no NIC detector);
* **on** — the same attack against the full defense stack: the XDP
  detector builtin dropping at NIC ingress, plus the overload-safe
  control plane (enforced backlog, embryonic limit + SYN cookies,
  half-open reaper).

and reports benign goodput for each, with in-scenario hard gates: with
the defense on, benign goodput must stay at >=50% of the no-attack
baseline, and `CONN_SLAB`'s live-slot high-water mark must stay at the
baseline's level (dropped SYNs allocate no offload state). For the SYN
flood the defense-off run must also *collapse* (<50% of baseline) —
that asymmetry is the survivability claim, pinned here and in CI's
attack-matrix job.

Attack:benign ratios are configured as packet rates; the SYN flood runs
at ~10:1 attack packets per benign request (the acceptance-criteria
operating point). Detector thresholds are chosen so the seeded spoof
pool trips the per-source SYN limit while the (per-host) benign SYN
rate, halved by the periodic decay process, stays well under it.

Injection logs are written to ``$REPRO_ATTACK_LOG_DIR`` (one JSON per
scenario/mode) when that variable is set — CI uploads them as
artifacts.
"""

import gc
import json
import os

from repro.apps import EchoServer
from repro.apps.attackgen import Attacker
from repro.control.plane import ControlPlaneConfig
from repro.flextoe.module import ModuleChain
from repro.harness import Testbed
from repro.libtoe.errors import ToeError
from repro.proto import str_to_ip, str_to_mac
from repro.stats import GoodputMeter
from repro.xdp import XdpAdapter
from repro.xdp.builtins.detector import (
    decay_features,
    detector_asm_program,
    set_thresholds,
)

ECHO_PORT = 7000
REQUEST = b"q" * 64
#: pacing gap between benign rounds (one short echo RPC per round).
BENIGN_GAP_NS = 20_000
N_BENIGN_LOOPS = 4
#: per-RPC reply deadline. Under attack a handshake can complete at
#: the client while the server's full backlog drops its cookie ACK
#: (``Listener.syn_dropped``) — a benign client must give up on such a
#: connection rather than block forever.
RPC_DEADLINE_NS = 2_000_000
RPC_POLL_NS = 5_000
#: periodic halving of the detector's per-source counters.
DECAY_INTERVAL_NS = 100_000

#: XDP result code 0 == XDP_DROP (the adapter counts verdicts by code).
_XDP_DROP = 0


def _benign_short_conns(ctx, server_ip, n_rounds, meter, tally):
    """Connect / one echo RPC / close, paced — goodput here depends on
    *handshake availability*, which is what a SYN flood attacks."""
    for _ in range(n_rounds):
        try:
            sock = yield from ctx.connect(server_ip, ECHO_PORT)
        except ToeError:
            tally["refused"] += 1
            yield ctx.sim.timeout(BENIGN_GAP_NS)
            continue
        try:
            yield from _echo_round(ctx, sock, meter, tally)
            yield from ctx.close(sock)
        except ToeError:
            tally["errors"] += 1
        yield ctx.sim.timeout(BENIGN_GAP_NS)


def _benign_persistent(ctx, server_ip, n_rounds, meter, tally):
    """One long-lived connection issuing paced echo RPCs — goodput here
    depends on the shared wire/switch path, which incast attacks."""
    rounds = 0
    while rounds < n_rounds:
        try:
            sock = yield from ctx.connect(server_ip, ECHO_PORT)
        except ToeError:
            tally["refused"] += 1
            yield ctx.sim.timeout(BENIGN_GAP_NS)
            continue
        try:
            while rounds < n_rounds:
                yield from _echo_round(ctx, sock, meter, tally)
                rounds += 1
                yield ctx.sim.timeout(BENIGN_GAP_NS)
            yield from ctx.close(sock)
        except ToeError:
            # Reset or timeout mid-stream: reconnect and continue.
            tally["errors"] += 1
            rounds += 1
            yield ctx.sim.timeout(BENIGN_GAP_NS)


def _echo_round(ctx, sock, meter, tally):
    yield from ctx.send(sock, REQUEST)
    reply = b""
    deadline = ctx.sim.now + RPC_DEADLINE_NS
    while len(reply) < len(REQUEST):
        ctx.dispatch()
        chunk = yield from ctx.recv(sock, 4096, blocking=False)
        if chunk is None:
            if ctx.sim.now >= deadline:
                break
            yield ctx.sim.timeout(RPC_POLL_NS)
            continue
        if chunk == b"":
            break
        reply += chunk
    if len(reply) == len(REQUEST):
        meter.record(len(REQUEST) + len(reply), benign=True)
        tally["completed"] += 1
        return True
    tally["errors"] += 1
    return False


class ClosingEchoServer(EchoServer):
    """EchoServer that also closes its end after the peer's FIN, so a
    finished connection leaves the directory (and the admission policy's
    count) instead of lingering as a zombie across the reconnect churn."""

    def _serve(self, sock, epoll):
        yield from EchoServer._serve(self, sock, epoll)
        if sock not in epoll.watched:
            yield from self.ctx.close(sock)


def _install_detector(server, thresholds):
    program, maps = detector_asm_program(max_sources=256)
    set_thresholds(maps, **thresholds)
    adapter = XdpAdapter(program=program, maps=maps, name="attack-detector")
    chain = ModuleChain([adapter])
    # The datapath reads the chain per-frame; the NIC-level reference
    # covers datapath re-creation after a crash/reboot.
    server.nic._ingress_modules = chain
    server.nic.datapath.ingress_modules = chain
    return adapter, maps


def _run_case(kind, mode, quick):
    """One sub-run; returns plain scalars so the testbed (and with it
    every connection record holding a CONN_SLAB slot) can be collected
    before the next sub-run measures the watermark."""
    from repro.flextoe.state import CONN_SLAB

    gc.collect()
    slab_base = CONN_SLAB.live
    CONN_SLAB.high_water = CONN_SLAB.live

    defense = mode == "on"
    config = {}
    if kind == "synflood":
        # The admission cap is the defense-off failure mode: bogus
        # SYN-time establishes exhaust it and benign connects get RSTs.
        config["max_connections"] = 256
    if defense:
        config.update(syn_defense_enabled=True, embryonic_limit=64, half_open_timeout_ns=500_000)
    cp_kwargs = {"config": ControlPlaneConfig(**config)}

    bed = Testbed(seed=29)
    server = bed.add_flextoe_host("server", cp_kwargs=cp_kwargs)
    clients = [bed.add_flextoe_host("client%d" % i) for i in range(N_BENIGN_LOOPS)]
    bed.seed_all_arp()

    adapter = None
    if defense:
        if kind == "incast":
            # The protocol-validity rule (always on) is the defense;
            # no rate thresholds needed.
            thresholds = {}
        else:
            thresholds = {"syn_limit": 20, "rst_limit": 20}
        adapter, dmaps = _install_detector(server, thresholds)

        def decay_loop():
            while True:
                yield bed.sim.timeout(DECAY_INTERVAL_NS)
                decay_features(dmaps)

        bed.sim.process(decay_loop(), name="detector-decay")

    echo = ClosingEchoServer(server.new_context(0), ECHO_PORT, request_size=len(REQUEST))
    bed.sim.process(echo.run(), name="attack-echo")

    meter = GoodputMeter(bed.sim)
    tally = {"completed": 0, "refused": 0, "errors": 0}
    n_rounds = 30 if quick else 75
    benign = _benign_persistent if kind == "incast" else _benign_short_conns
    waiters = [
        bed.sim.process(
            benign(host.new_context(0), server.ip, n_rounds, meter, tally),
            name="benign%d" % i,
        )
        for i, host in enumerate(clients)
    ]

    attacker = None
    if mode != "baseline":
        station = bed.topology.attach(
            "attacker", mac=str_to_mac("02:00:00:00:00:c8"), ip=str_to_ip("10.0.200.1")
        )
        attacker = Attacker(
            bed.sim, station, server.ip, server.mac, ECHO_PORT, seed=17
        )
        if kind == "synflood":
            # ~10:1 attack packets per benign request: benign offers one
            # request per (gap / n_loops) = 5us, the flood one SYN per
            # 500ns, from a pool of 4 spoofed sources.
            attack = attacker.syn_flood(
                n_packets=1600 if quick else 4000, interval_ns=500, src_pool=4
            )
        elif kind == "churn":
            attack = attacker.conn_churn(
                n_cycles=250 if quick else 600, interval_ns=2_500
            )
        else:
            attack = attacker.incast(
                n_bursts=30 if quick else 75, burst_size=4, interval_ns=20_000, src_pool=16
            )
        bed.sim.process(attack, name="attack-%s" % kind)

    bed.sim.run(until=bed.sim.all_of(waiters))
    if attacker is not None:
        attacker.stop = True

    plane = server.control_plane
    result = {
        "goodput_bps": round(meter.goodput_bps, 1),
        "completed": tally["completed"],
        "refused": tally["refused"],
        "errors": tally["errors"],
        "slab_watermark": CONN_SLAB.high_water - slab_base,
        "mem_used_bytes": server.machine.memory.hugepages.used,
        "syn_dropped": plane.syn_dropped,
        "cookies_sent": plane.cookies_sent,
        "cookies_validated": plane.cookies_validated,
        "embryonic_reaped": plane.embryonic_reaped,
        "resets_received": plane.resets_received,
        "challenge_acks": plane.challenge_acks,
        "detector_drops": adapter.results.get(_XDP_DROP, 0) if adapter else 0,
        "attack_sent": attacker.sent if attacker else 0,
        "rsts_reflected": attacker.rsts_received if attacker else 0,
    }
    _write_attack_log(kind, mode, attacker)
    return result


def _write_attack_log(kind, mode, attacker):
    log_dir = os.environ.get("REPRO_ATTACK_LOG_DIR")
    if not log_dir or attacker is None:
        return
    os.makedirs(log_dir, exist_ok=True)
    path = os.path.join(log_dir, "attack-{}-{}.json".format(kind, mode))
    with open(path, "w") as fh:
        json.dump(attacker.log.to_jsonable(), fh, indent=2, sort_keys=True)


def run_attack_scenario(kind, quick):
    """baseline/off/on sub-runs plus the survivability gates; returns
    ``(checks, metrics)``: deterministic counters and ratios, then the
    goodput and memory readings behind them."""
    modes = {}
    for mode in ("baseline", "off", "on"):
        modes[mode] = _run_case(kind, mode, quick)

    base_bps = modes["baseline"]["goodput_bps"]
    off_bps = modes["off"]["goodput_bps"]
    on_bps = modes["on"]["goodput_bps"]
    on_ratio = on_bps / base_bps if base_bps else 0.0
    off_ratio = off_bps / base_bps if base_bps else 0.0

    if modes["baseline"]["completed"] == 0:
        raise AssertionError("attack-%s: baseline benign load completed nothing" % kind)
    # The headline survivability gate (mirrored by CI's attack-matrix
    # job): defense on keeps >=50% of no-attack goodput.
    if on_ratio < 0.5:
        raise AssertionError(
            "attack-%s: defense-on goodput %.0f bps is %.0f%% of baseline %.0f bps (<50%%)"
            % (kind, on_bps, 100 * on_ratio, base_bps)
        )
    if modes["on"]["detector_drops"] == 0:
        raise AssertionError("attack-%s: detector never fired" % kind)
    # No offload state for dropped SYNs: the defended run's CONN_SLAB
    # watermark stays at the baseline's (benign-only) level.
    slack = 8
    if modes["on"]["slab_watermark"] > modes["baseline"]["slab_watermark"] + slack:
        raise AssertionError(
            "attack-%s: defense-on slab watermark %d exceeds baseline %d"
            % (kind, modes["on"]["slab_watermark"], modes["baseline"]["slab_watermark"])
        )
    if kind == "synflood":
        # The collapse pin: with everything off, the flood must take
        # the legacy control plane below 50% of baseline.
        if off_ratio >= 0.5:
            raise AssertionError(
                "attack-synflood: defense-off goodput %.0f%% of baseline — expected collapse"
                % (100 * off_ratio)
            )
        if modes["off"]["slab_watermark"] <= modes["baseline"]["slab_watermark"]:
            raise AssertionError(
                "attack-synflood: defense-off run allocated no extra slab state"
            )
    if kind == "churn":
        # Churn burns host memory (buffer allocations never return to
        # the hugepage pool); the detector must stop the burn.
        if modes["on"]["mem_used_bytes"] >= modes["off"]["mem_used_bytes"]:
            raise AssertionError("attack-churn: defense did not reduce memory burn")
    if kind == "incast":
        # Defense must stop the control plane's RST reflection.
        if modes["off"]["rsts_reflected"] == 0:
            raise AssertionError("attack-incast: no reflection observed with defense off")
        if modes["on"]["rsts_reflected"] >= modes["off"]["rsts_reflected"]:
            raise AssertionError("attack-incast: defense did not curb RST reflection")

    checks = {
        "baseline_completed": modes["baseline"]["completed"],
        "off_completed": modes["off"]["completed"],
        "on_completed": modes["on"]["completed"],
        "off_ratio": round(off_ratio, 4),
        "on_ratio": round(on_ratio, 4),
        "detector_drops": modes["on"]["detector_drops"],
        "attack_sent": modes["off"]["attack_sent"],
        "slab_watermark_off": modes["off"]["slab_watermark"],
        "slab_watermark_on": modes["on"]["slab_watermark"],
        "syn_dropped_on": modes["on"]["syn_dropped"],
        "cookies_sent_on": modes["on"]["cookies_sent"],
        "embryonic_reaped_on": modes["on"]["embryonic_reaped"],
        "rsts_reflected_off": modes["off"]["rsts_reflected"],
        "rsts_reflected_on": modes["on"]["rsts_reflected"],
    }
    metrics = {
        "goodput_baseline_bps": base_bps,
        "goodput_off_bps": off_bps,
        "goodput_on_bps": on_bps,
        "mem_used_off_bytes": modes["off"]["mem_used_bytes"],
        "mem_used_on_bytes": modes["on"]["mem_used_bytes"],
    }
    return checks, metrics
