"""Ablations of FlexTOE design choices beyond Table 3 (DESIGN.md §6).

* ACK-every-segment vs delayed ACKs — the paper notes (§5.2) that
  delayed ACKs would improve bidirectional bulk throughput: each
  incoming segment currently generates an ACK, quadrupling packets/s
  for echo-style flows.
* One out-of-order interval vs dropping all OOO segments — the single
  interval is what lets go-back-N recover without resending everything
  the receiver already has.
"""

from common import EchoBench
from conftest import run_once
from repro.flextoe.config import PipelineConfig
from repro.harness.report import Table
from repro.net import LossInjector


def measure_ack_policy(delayed_segments):
    config = PipelineConfig.full()
    config.delayed_ack_segments = delayed_segments
    bench = EchoBench(
        "flextoe",
        n_connections=8,
        request_size=8 * 1024,
        pipeline=4,
        server_cores=2,
        client_hosts=2,
        pipeline_config=config,
    )
    result = bench.run(warmup_ns=1_000_000, window_ns=4_000_000)
    server_dp = bench.server.nic.datapath
    acks = sum(stage.acks_built for stage in server_dp.post_stages)
    return result["goodput_bps"], acks


def measure_ooo_policy(loss_rate):
    bench = EchoBench(
        "flextoe",
        n_connections=8,
        request_size=16 * 1024,
        response_size=32,
        pipeline=2,
        server_cores=1,
        client_hosts=2,
        loss=lambda rng: LossInjector(rng, probability=loss_rate),
    )
    result = bench.run(warmup_ns=2_000_000, window_ns=12_000_000)
    server_dp = bench.server.nic.datapath
    return result["goodput_bps"]


def test_ablation_ack_policy(benchmark):
    rows = run_once(
        benchmark,
        lambda: {d: measure_ack_policy(d) for d in (1, 2)},
    )
    table = Table(
        "Ablation: ACK policy on bidirectional bulk",
        ["delayed-ack segments", "goodput (Mbps)", "ACKs built"],
    )
    for d, (goodput, acks) in sorted(rows.items()):
        table.add_row(d, "%.1f" % (goodput / 1e6), acks)
    table.show()
    # Matching the paper's note: acking every segment is the default and
    # correct; a (simplified) delayed-ACK variant cuts ACK load.
    assert rows[2][1] < rows[1][1]
    # Throughput must not collapse under either policy.
    assert rows[2][0] > 0.5 * rows[1][0]


def test_ablation_ooo_interval(benchmark):
    goodput = run_once(benchmark, lambda: measure_ooo_policy(0.01))
    table = Table("Ablation: loss recovery with one OOO interval", ["loss", "goodput (Mbps)"])
    table.add_row("1%", "%.1f" % (goodput / 1e6))
    table.show()
    # The interval keeps bulk goodput alive under 1 % loss.
    assert goodput > 10e6
