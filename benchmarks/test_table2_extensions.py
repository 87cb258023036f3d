"""Table 2: throughput with flexible extensions.

Paper (saturated small-RPC data-path, mOps):
  baseline 11.35; statistics+profiling (48 tracepoints) 8.67 (-24 %);
  tcpdump no-filter 6.52 (-43 %); XDP null 10.87 (-4 %);
  XDP vlan-strip 10.83 (~null).

Same experiment here: a saturated 64 B echo server on FlexTOE with each
extension loaded, relative throughput compared against the baseline. The
two XDP rows load the eBPF programs through ``XdpAdapter`` (verified,
JIT-compiled), so their FPC charge is the instructions each packet
executed.
"""

from common import EchoBench
from conftest import run_once
from repro.flextoe.config import PipelineConfig
from repro.flextoe.module import ModuleChain
from repro.flextoe.tcpdump import PacketCapture
from repro.harness.report import Table
from repro.xdp import XdpAdapter
from repro.xdp.builtins import null_asm_program, vlan_asm_program


def run_build(label):
    pipeline_config = PipelineConfig.full()
    kwargs = {}
    if label == "profiling":
        pipeline_config.tracepoints_enabled = True
    bench = EchoBench(
        "flextoe",
        n_connections=32,
        request_size=64,
        pipeline=12,
        server_cores=4,
        client_hosts=4,
        pipeline_config=pipeline_config,
    )
    nic = bench.server.nic
    if label == "profiling":
        nic.tracepoints.enable_all()
    elif label == "tcpdump":
        nic.datapath.capture = PacketCapture(packet_filter=None, limit=50_000)
    elif label == "xdp-null":
        nic.datapath.ingress_modules = ModuleChain([XdpAdapter(*null_asm_program())])
    elif label == "xdp-vlan-strip":
        nic.datapath.ingress_modules = ModuleChain([XdpAdapter(*vlan_asm_program())])
    result = bench.run(window_ns=1_200_000)
    return result["ops_per_sec"]


BUILDS = ("baseline", "profiling", "tcpdump", "xdp-null", "xdp-vlan-strip")


def test_table2_extensions(benchmark):
    results = run_once(benchmark, lambda: {label: run_build(label) for label in BUILDS})

    base = results["baseline"]
    table = Table(
        "Table 2: performance with flexible extensions",
        ["build", "ops/s", "relative"],
    )
    for label in BUILDS:
        table.add_row(label, "%.0f" % results[label], "%.2f" % (results[label] / base))
    table.show()

    # Profiling costs real throughput, but far less than full logging.
    assert results["profiling"] < 0.95 * base
    assert results["tcpdump"] < results["profiling"]
    assert results["tcpdump"] > 0.12 * base
    # Null XDP and vlan-strip overheads are small (paper: ~4 %).
    assert results["xdp-null"] > 0.85 * base
    assert results["xdp-vlan-strip"] > 0.85 * base
    assert abs(results["xdp-vlan-strip"] - results["xdp-null"]) < 0.12 * base
