"""Micro-benchmarks backing individual claims in the paper's text.

* §2.3: computing an ECN-ratio gradient takes ~1,500 cycles (1.9 us) on
  an FPC — the motivating example for keeping congestion control on the
  control plane.
* §5.1: connection splicing sustains millions of packets per second on
  idle FPCs (paper: 6.4 Mpps, line rate at MTU size).
* §4: the flow scheduler converts rates to deadlines without division
  (Q8 multiply only).
"""

from conftest import run_once
from repro.flextoe.scheduler import INTERVAL_Q8_SHIFT, rate_to_interval_q8
from repro.harness.report import Table
from repro.nfp import Fpc
from repro.proto import make_tcp_frame, str_to_ip
from repro.sim import Simulator
from repro.xdp import XdpAdapter
from repro.xdp.builtins import SpliceEntry, splice_asm_program, splice_key
from repro.xdp.builtins.splice import SPLICE_FD

ECN_GRADIENT_CYCLES = 1500  # paper's measured FPC cost


def measure_ecn_gradient_ns():
    """Time the paper's 1,500-cycle gradient computation on one FPC."""
    sim = Simulator()
    fpc = Fpc(sim, "fpc0")
    finished = {}

    def program(thread):
        yield thread.compute(ECN_GRADIENT_CYCLES)
        finished["at"] = sim.now

    fpc.spawn(program)
    sim.run()
    return finished["at"]


def measure_splice_rate():
    """Splicing executed back-to-back on idle FPC threads."""
    sim = Simulator()
    program, maps = splice_asm_program()
    adapter = XdpAdapter(program, maps)
    src = str_to_ip("10.0.0.1")
    dst = str_to_ip("10.0.0.2")
    key = splice_key(src, dst, 1000, 2000)
    maps[SPLICE_FD].update(key, SpliceEntry(0xCC, str_to_ip("10.0.0.3"), 7, 8, 10, 20).pack())

    n_packets = 2000
    fpcs = [Fpc(sim, "fpc%d" % i) for i in range(3)]  # the 3 idle FPCs/island
    done = {"count": 0}

    def worker(thread):
        while done["count"] < n_packets:
            done["count"] += 1
            frame = make_tcp_frame(0xA, 0xB, src, dst, 1000, 2000, payload=b"")
            adapter.handle(frame, None)
            yield thread.compute(adapter.cost_cycles)

    for fpc in fpcs:
        for _ in range(8):
            fpc.spawn(worker)
    sim.run()
    return n_packets * 1e9 / sim.now


def test_misc_microbenchmarks(benchmark):
    gradient_ns, splice_pps = run_once(
        benchmark, lambda: (measure_ecn_gradient_ns(), measure_splice_rate())
    )

    table = Table("Micro-benchmarks", ["metric", "measured", "paper"])
    table.add_row("ECN gradient on FPC", "%.2f us" % (gradient_ns / 1e3), "1.9 us")
    table.add_row("splice rate (3 idle FPCs)", "%.1f Mpps" % (splice_pps / 1e6), "6.4 Mpps")
    table.show()

    # 1,500 cycles at 800 MHz = 1.875 us (the paper's 1.9 us).
    assert abs(gradient_ns - 1875) <= 5
    # Splicing sustains multi-Mpps on idle FPCs.
    assert splice_pps > 3e6


def test_scheduler_interval_is_division_free():
    # Control plane divides; the data-path multiplies Q8 intervals.
    interval = rate_to_interval_q8(1_250_000_000)  # 10 Gbps in bytes/s
    assert interval == (10**9 << INTERVAL_Q8_SHIFT) // 1_250_000_000
    # 1448 bytes at that interval: ~1158 ns (10 Gbps pacing).
    delay = (1448 * interval) >> INTERVAL_Q8_SHIFT
    assert 1100 < delay < 1220
    assert rate_to_interval_q8(0) == 0  # unlimited -> RR bypass
