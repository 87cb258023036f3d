"""Stack-personality behavior: where cycles land, lock effects, config."""

import pytest

from repro.baselines import add_chelsio_host, add_linux_host, add_tas_host
from repro.harness import Testbed


def run_workload(stack_adder, n_requests=40):
    bed = Testbed(seed=13)
    server = stack_adder(bed, "server")
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    server_ctx = server.new_context(0)
    client_ctx = client.new_context()

    def server_app():
        listener = server_ctx.listen(7000)
        sock = yield from server_ctx.accept(listener)
        for _ in range(n_requests):
            data = yield from server_ctx.recv(sock, 4096)
            if not data:
                return
            yield from server_ctx.send(sock, data)

    def client_app():
        sock = yield from client_ctx.connect(server.ip, 7000)
        for _ in range(n_requests):
            yield from client_ctx.send(sock, b"y" * 64)
            yield from client_ctx.recv(sock, 4096)

    bed.sim.process(server_app(), name="server")
    bed.sim.process(client_app(), name="client")
    bed.sim.run(until=500_000_000)
    return server


def test_tas_tcp_cycles_on_fast_path_cores():
    server = run_workload(lambda bed, name: add_tas_host(bed, name, fast_path_cores=2))
    cores = server.machine.cores
    fast_path = cores[-2:]
    app = cores[0]
    fast_tcp = sum(c.accounting.cycles.get("tcp", 0) for c in fast_path)
    # RX TCP processing runs on the dedicated fast-path cores.
    assert fast_tcp > 0
    # The app core pays sockets but TX-side tcp too (libTAS enqueue);
    # the fast path carries the per-segment receive work.
    assert app.accounting.cycles.get("sockets", 0) > 0


def test_chelsio_has_no_host_rx_tcp_cycles():
    server = run_workload(add_chelsio_host)
    acct = server.machine.aggregate_accounting()
    # The TOE does TCP; the host pays driver + sockets.
    assert acct.cycles.get("driver", 0) > 0
    assert acct.cycles.get("sockets", 0) > 0
    # Residual host tcp cycles far below Linux's.
    linux_server = run_workload(add_linux_host)
    linux_acct = linux_server.machine.aggregate_accounting()
    assert linux_acct.cycles.get("tcp", 0) > 3 * acct.cycles.get("tcp", 1)


def test_linux_charges_all_categories():
    server = run_workload(add_linux_host)
    acct = server.machine.aggregate_accounting()
    for category in ("driver", "tcp", "sockets", "app", "other"):
        if category == "app":
            continue  # echo has no app cycles
        assert acct.cycles.get(category, 0) > 0, category


def test_engine_configs_match_paper_traits():
    from repro.baselines import CHELSIO, LINUX, TAS
    from repro.baselines.stack import FAST_PATH, KERNEL, TOE

    assert LINUX.engine_config.recovery == "sack"
    assert LINUX.engine_config.reassembly == "full"
    assert LINUX.runs_on == KERNEL

    assert TAS.engine_config.recovery == "gbn"
    assert TAS.engine_config.reassembly == "drop"
    assert TAS.runs_on == FAST_PATH and TAS.fast_path_cores > 0

    assert CHELSIO.engine_config.recovery == "rto_only"
    assert CHELSIO.runs_on == TOE
    assert CHELSIO.engine_config.min_rto_ns >= 5_000_000  # conservative HW RTO


def test_stack_counters_consistent():
    server = run_workload(add_tas_host, n_requests=10)
    # The engine served one connection; it is still established.
    assert len(server.engine.conns) == 1
    conn = next(iter(server.engine.conns.values()))
    assert conn.bytes_acked_total >= 10 * 64
