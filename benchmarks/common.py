"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark builds a testbed with one server host (any stack) and
one or more client hosts (FlexTOE clients by default, so the stack under
test is always the *server* side, as in the paper), drives a workload
for a fixed window of simulated time, and reports paper-style rows.

Simulated windows are milliseconds rather than the paper's seconds —
the simulator is cycle-accurate-ish but not fast — so absolute numbers
are far below a 40 Gbps testbed. Shapes (orderings, ratios, knees) are
what the assertions check; EXPERIMENTS.md records both.
"""

from repro.apps import EchoServer, MemcachedServer, MemtierClient
from repro.apps.rpc import ClosedLoopClient, OpenLoopClient
from repro.harness import STACKS, Testbed, build_host

#: TAS reserves this many machine cores for its fast path; apps must
#: not be pinned there.
TAS_FASTPATH_CORES = 2


def add_server(bed, stack, name="server", n_cores=20, pipeline_config=None, cp_kwargs=None):
    kwargs = {
        "flextoe": {"pipeline_config": pipeline_config, "cp_kwargs": cp_kwargs},
        "tas": {"fast_path_cores": TAS_FASTPATH_CORES},
    }.get(stack, {})
    return build_host(bed, stack, name, n_cores=n_cores, **kwargs)


def add_client(bed, name="client", stack="flextoe", n_cores=20):
    return add_server(bed, stack, name=name, n_cores=n_cores)


def client_context(host, index):
    """A context on a core the stack allows apps to use."""
    stack = "tas" if getattr(getattr(host, "personality", None), "name", "") == "tas" else ""
    cores = usable_cores(host, stack or "any")
    return host.new_context(cores[index % len(cores)])


def usable_cores(host, stack):
    """Core indices an application may use on this host."""
    total = len(host.machine.cores)
    if stack == "tas":
        return list(range(total - TAS_FASTPATH_CORES))
    return list(range(total))


class EchoBench:
    """Echo/RPC saturation: N connections against one echo server."""

    def __init__(
        self,
        server_stack,
        n_connections=8,
        request_size=64,
        response_size=None,
        pipeline=8,
        server_cores=1,
        app_delay_cycles=0,
        client_hosts=2,
        client_stack="flextoe",
        seed=1,
        pipeline_config=None,
        cp_kwargs=None,
        switch_kwargs=None,
        loss=None,
    ):
        self.bed = Testbed(seed=seed, **(switch_kwargs or {}))
        if loss is not None:
            self.bed.switch.faults = loss(self.bed.rng.stream("loss"))
        self.server_stack = server_stack
        self.server = add_server(
            self.bed, server_stack, n_cores=20, pipeline_config=pipeline_config, cp_kwargs=cp_kwargs
        )
        self.clients = [
            add_client(self.bed, "client%d" % i, stack=client_stack) for i in range(client_hosts)
        ]
        self.bed.seed_all_arp()
        self.request_size = request_size
        self.response_size = response_size if response_size is not None else request_size
        self.servers = []
        cores = usable_cores(self.server, server_stack)
        for i in range(server_cores):
            ctx = self.server.new_context(cores[i % len(cores)])
            echo = EchoServer(
                ctx,
                7000 + i,
                request_size=request_size,
                response_size=response_size,
                app_delay_cycles=app_delay_cycles,
            )
            self.bed.sim.process(echo.run(), name="echo%d" % i)
            self.servers.append(echo)
        self.rpc_clients = []
        for i in range(n_connections):
            client_host = self.clients[i % len(self.clients)]
            ctx = client_context(client_host, (i // len(self.clients)) % 16)
            port = 7000 + (i % server_cores)
            rpc = OpenLoopClient(
                ctx,
                self.server.ip,
                port,
                self.request_size,
                self.response_size,
                pipeline=pipeline,
            )
            self.bed.sim.process(rpc.run(), name="rpc%d" % i)
            self.rpc_clients.append(rpc)

    def run(self, warmup_ns=300_000, window_ns=1_500_000):
        sim = self.bed.sim
        sim.run(until=warmup_ns)
        for rpc in self.rpc_clients:
            rpc.meter.reset()
        sim.run(until=warmup_ns + window_ns)
        for rpc in self.rpc_clients:
            rpc.stop = True
        ops = sum(rpc.meter.events for rpc in self.rpc_clients)
        nbytes = sum(rpc.meter.bytes for rpc in self.rpc_clients)
        return {
            "ops_per_sec": ops * 1e9 / window_ns,
            "goodput_bps": nbytes * 8 * 1e9 / window_ns,
            "completed": ops,
            "per_conn_ops": [rpc.meter.events for rpc in self.rpc_clients],
        }


class MemcachedBench:
    """Memcached + memtier (the §2.1/§5.1 workload)."""

    def __init__(
        self,
        server_stack,
        server_cores=1,
        clients_per_core=8,
        client_hosts=2,
        key_size=32,
        value_size=32,
        seed=1,
    ):
        self.bed = Testbed(seed=seed)
        self.server_stack = server_stack
        self.server = add_server(self.bed, server_stack)
        self.client_hosts = [add_client(self.bed, "client%d" % i) for i in range(client_hosts)]
        self.bed.seed_all_arp()
        store = {}
        cores = usable_cores(self.server, server_stack)
        self.mc_servers = []
        for i in range(server_cores):
            ctx = self.server.new_context(cores[i % len(cores)])
            mc = MemcachedServer(ctx, 11211 + i, store=store)
            self.bed.sim.process(mc.run(), name="mc%d" % i)
            self.mc_servers.append(mc)
        self.tiers = []
        n_clients = server_cores * clients_per_core
        for i in range(n_clients):
            host = self.client_hosts[i % len(self.client_hosts)]
            ctx = host.new_context((i // len(self.client_hosts)) % 16)
            tier = MemtierClient(
                ctx,
                self.server.ip,
                11211 + (i % server_cores),
                key_size=key_size,
                value_size=value_size,
                key_space=100,
                seed=i,
                warmup=0,
            )
            self.bed.sim.process(tier.run(), name="memtier%d" % i)
            self.tiers.append(tier)

    def run(self, warmup_ns=400_000, window_ns=1_500_000):
        sim = self.bed.sim
        sim.run(until=warmup_ns)
        for tier in self.tiers:
            tier.meter.reset()
            tier.histogram = type(tier.histogram)()
        sim.run(until=warmup_ns + window_ns)
        for tier in self.tiers:
            tier.stop = True
        ops = sum(t.meter.events for t in self.tiers)
        merged = self.tiers[0].histogram
        for tier in self.tiers[1:]:
            merged.merge(tier.histogram)
        return {
            "ops_per_sec": ops * 1e9 / window_ns,
            "latency": merged,
            "completed": ops,
        }


def closed_loop_latency(server_stack, request_size, response_size, n_requests=300, seed=1, client_stack="flextoe"):
    """Single-connection ping-pong RTT distribution (Figs 10/12)."""
    bed = Testbed(seed=seed)
    server = add_server(bed, server_stack)
    client = add_client(bed, "client", stack=client_stack)
    bed.seed_all_arp()
    cores = usable_cores(server, server_stack)
    echo = EchoServer(
        server.new_context(cores[0]),
        7000,
        request_size=request_size,
        response_size=response_size,
    )
    bed.sim.process(echo.run(), name="echo")
    client_cores = usable_cores(client, client_stack)
    rpc = ClosedLoopClient(
        client.new_context(client_cores[0]),
        server.ip,
        7000,
        request_size,
        response_size,
        warmup=10,
    )
    proc = bed.sim.process(rpc.run(n_requests), name="rpc")
    bed.sim.run(until=proc)
    return rpc.histogram
