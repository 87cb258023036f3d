"""The five workloads: builders that take a testbed to its barrier.

A builder returns a list of :class:`Cell` (one testbed each; only
``baseline-stacks`` has more than one). Building *is* the set-up phase:
the testbed is assembled, state installed, every client connects, runs
its warm-up ops and parks on the cell's barrier. :meth:`Cell.measure`
then releases the barrier and runs the measured phase. All workloads
are closed loops: a client sends its next request only after the
previous reply is complete.

The seed feeds every ``Testbed(seed=...)`` and one client RNG per
connection, which draws every payload (each reply is checked byte for
byte). The *layout* of a run — each client's start offset after the
barrier and, on ``large-loss``, which ops lose which frames — comes from
the pinned ``LAYOUT_SEED``: simulated metrics are the exact tripwire
between two commits, and with a seeded layout they spread across ten
seeds by 24 % (p50), 57 % (tail) and 10 % (goodput) on ``large-loss``,
1.7 % (p50) on ``conn-churn``. Builder keyword defaults are the
benchmark's fixed sizes; only the harness tests pass others.
"""

import random
import time

from perf import api

RECV_MAX = 256 * 1024
#: Clients start within this window after the barrier, so connections do
#: not run in lock-step.
STAGGER_NS = 2_000
LAYOUT_SEED = 0x464C5854  # "FLXT"
#: Simulated-time budgets. A run that is not done by then is stuck (a
#: wedged connection keeps the simulator busy with idle events forever),
#: so it fails fast instead.
SETUP_DEADLINE_NS = 20_000_000
MEASURE_DEADLINE_NS = 50_000_000
#: Cores applications may use (TAS claims the last four of twenty).
APP_CORES = 16


class StuckRun(RuntimeError):
    """A phase did not finish before its simulated deadline."""


def vm_rss_bytes():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    return 0


class Cell:
    """One testbed, its parked clients and what they measured."""

    def __init__(self, label, bed, seed, horizon_ns=None):
        self.label = label
        self.bed = bed
        self.sim = bed.sim
        self.payloads = random.Random(seed)
        self.layout = random.Random(LAYOUT_SEED)
        #: Fixed measured-phase length; None runs until every client is done.
        self.horizon_ns = horizon_ns
        self.planned = 0
        self.ok = 0
        self.latencies_ns = []
        self.payload_bytes = 0
        self.extras = {}
        self.xdp = None
        self.fault_log = None
        self._barrier = self.sim.event()
        self._all_parked = self.sim.event()
        self._parked = 0
        self._clients = []
        self.events = 0
        self.sim_ns = 0
        self.setup_events = 0
        self._frames0 = 0
        self._dma0 = 0

    # -- set-up ---------------------------------------------------------------

    def client_rng(self):
        """A payload RNG for one more client."""
        return random.Random(self.payloads.getrandbits(64))

    def add_client(self, generator, planned_ops):
        self._clients.append(self.sim.process(generator))
        self.planned += planned_ops

    def park(self, start_offset_ns):
        """Client side of the barrier: report ready, wait for release."""
        self._parked += 1
        if self._parked == len(self._clients):
            self._all_parked.succeed()
        yield self._barrier
        yield self.sim.timeout(start_offset_ns)

    def run_to_barrier(self):
        self._run_until(self._all_parked, SETUP_DEADLINE_NS, "set-up")
        self.setup_events = self.sim.processed_events
        return self

    def _run_until(self, target, budget_ns, phase):
        sim = self.sim
        sim.run(until=sim.any_of([target, sim.timeout(budget_ns)]))
        if not target.triggered:
            raise StuckRun(
                "{}: {} phase not finished after {} simulated ns".format(self.label, phase, budget_ns)
            )

    # -- measured phase ---------------------------------------------------------

    def record(self, ok, latency_ns, nbytes):
        if ok:
            self.ok += 1
            self.latencies_ns.append(latency_ns)
            self.payload_bytes += nbytes

    def measure(self):
        sim = self.sim
        events0, now0 = sim.processed_events, sim.now
        self._frames0 = self.bed.switch.forwarded
        self._dma0 = self._dma_ops()
        self._barrier.succeed()
        if self.horizon_ns is None:
            self._run_until(sim.all_of(self._clients), MEASURE_DEADLINE_NS, "measured")
        else:
            sim.run(until=now0 + self.horizon_ns)
        self.events = sim.processed_events - events0
        self.sim_ns = sim.now - now0

    # -- read-out -----------------------------------------------------------------

    def _nics(self):
        return [host.nic for host in self.bed.hosts.values() if hasattr(host, "nic")]

    def _dma_ops(self):
        return sum(nic.chip.dma.ops for nic in self._nics())

    def counters(self):
        """Public counters of this cell, summed over its hosts."""
        total = {}
        for entry in api.counters_snapshot(self.bed).values():
            for key, value in entry.items():
                total[key] = total.get(key, 0) + value
        total["frames"] = self.bed.switch.forwarded - self._frames0
        total["dma_ops"] = self._dma_ops() - self._dma0
        total["injections"] = len(self.fault_log.actions("drop")) if self.fault_log is not None else 0
        total["xdp_invocations"] = self.xdp.invocations if self.xdp is not None else 0
        return total

    def fpc_util_max(self):
        """Highest modelled FPC occupancy over the cell's whole run."""
        utils = [
            fpc.utilization(self.sim.now)
            for nic in self._nics()
            for island in nic.chip.islands
            for fpc in island.fpcs
        ]
        return max(utils) if utils else 0.0


# -- clients and servers --------------------------------------------------------


def rpc(ctx, sock, request, expected):
    """One request/response; True when the reply is byte-exact."""
    yield from ctx.send(sock, request)
    chunks = []
    missing = len(expected)
    while missing > 0:
        chunk = yield from ctx.recv(sock, RECV_MAX)
        if not chunk:
            return False
        chunks.append(chunk)
        missing -= len(chunk)
    return b"".join(chunks) == expected


def rpc_client(cell, ctx, server_ip, port, size, warmup, ops, start_offset_ns, reply=None,
               think_ns=0, opened=None):
    """Closed-loop client over one connection. ``reply`` is the fixed
    response the server sends; None means it echoes the request.
    ``opened`` collects the sockets."""
    sim = cell.sim
    rng = cell.client_rng()
    sock = yield from ctx.connect(server_ip, port)
    if opened is not None:
        opened.append(sock)
    for _ in range(warmup):
        request = rng.randbytes(size)
        if not (yield from rpc(ctx, sock, request, reply or request)):
            raise StuckRun("{}: warm-up op failed".format(cell.label))
    yield from cell.park(start_offset_ns)
    for _ in range(ops):
        request = rng.randbytes(size)
        expected = reply or request
        start = sim.now
        ok = yield from rpc(ctx, sock, request, expected)
        cell.record(ok, sim.now - start, size + len(expected))
        if think_ns:
            yield sim.timeout(think_ns)


def _echo_pairs(cell, server, client, conns, warmup, ops, size, response_size=None,
                think_ns=0, stagger_ns=STAGGER_NS, opened=None):
    """``conns`` connections, each to its own EchoServer instance."""
    reply = None if response_size is None else b"R" * response_size
    for i in range(conns):
        echo = api.EchoServer(
            server.new_context(i % APP_CORES), 7000 + i, request_size=size,
            response_size=response_size,
        )
        cell.sim.process(echo.run(), name="echo%d" % i)
        cell.add_client(
            rpc_client(cell, client.new_context(i % APP_CORES), server.ip, 7000 + i, size, warmup,
                       ops, cell.layout.randrange(stagger_ns), reply=reply, think_ns=think_ns,
                       opened=opened),
            ops,
        )


def _flextoe_pair(seed, label, server_config=None, horizon_ns=None):
    bed = api.Testbed(seed=seed)
    cp_kwargs = {"config": server_config} if server_config is not None else None
    server = bed.add_flextoe_host("server", cp_kwargs=cp_kwargs)
    client = bed.add_flextoe_host("client")
    bed.seed_all_arp()
    return Cell(label, bed, seed, horizon_ns=horizon_ns), server, client


# -- echo-small -------------------------------------------------------------------


def echo_small(seed, conns=16, warmup=2, ops=64, size=64):
    cell, server, client = _flextoe_pair(seed, "echo-small")
    _echo_pairs(cell, server, client, conns, warmup, ops, size)
    return [cell.run_to_barrier()]


# -- large-loss -------------------------------------------------------------------


class ScheduledLoss(api.WireFault):
    """Drops the first transmission of the frame carrying each scheduled
    stream byte; retransmissions always pass.

    ``schedule`` maps a flow ``(sport, dport)`` to ascending byte offsets,
    counted from the first data byte the flow sends after activation.
    Random loss at a fixed rate makes the number of retransmission
    timeouts a lottery (ten seeds gave 1.6-5.7 ms for the same 132 ops);
    a schedule fixes which ops meet which recovery path.
    """

    def __init__(self, schedule, **kwargs):
        super().__init__(**kwargs)
        self.schedule = schedule
        self._flows = {}  # flow -> (base seq, next new seq, index of next offset)

    def admit_one(self, ctx, frame):
        tcp = frame.tcp
        if tcp is None or not frame.payload:
            return [(frame, 0)]
        flow = (tcp.sport, tcp.dport)
        offsets = self.schedule.get(flow)
        if offsets is None:
            return [(frame, 0)]
        base, high, index = self._flows.setdefault(flow, (tcp.seq, tcp.seq, 0))
        end_seq = (tcp.seq + len(frame.payload)) & 0xFFFFFFFF
        if (end_seq - high - 1) & 0xFFFFFFFF >= 0x80000000:
            return [(frame, 0)]  # ends at or below the highest byte seen: a retransmission
        # Only the bytes above ``high`` are new; those below were already judged.
        new_from = (high - base) & 0xFFFFFFFF
        end = (end_seq - base) & 0xFFFFFFFF
        hit = False
        while index < len(offsets) and offsets[index] < end:
            hit = hit or offsets[index] >= new_from
            index += 1
        self._flows[flow] = (base, end_seq, index)
        if not hit:
            return [(frame, 0)]
        ctx.log_event("drop", "switch", api.describe_frame(frame))
        return []


def _loss_schedule(rng, ops, request_size, response_size, mss):
    """Offsets to lose on one connection: (requests, responses).

    Seven ops are hit: four lose one mid-response segment and one loses
    two adjacent ones (out-of-order handling, fast retransmit), one
    loses the response's last segment and one its request (no duplicate
    ACKs follow, so the retransmission timer recovers them).
    """
    segments = -(-response_size // mss)
    requests, responses = [], []
    for kind, op in enumerate(rng.sample(range(ops), 7)):
        base = op * response_size
        if kind < 4:
            responses.append(base + mss * rng.randint(2, max(2, segments - 4)))
        elif kind == 4:
            first = rng.randint(2, max(2, segments - 5))
            responses += [base + mss * first, base + mss * (first + 1)]
        elif kind == 5:
            responses.append(base + response_size - 1)
        else:
            requests.append(op * request_size)
    return sorted(requests), sorted(responses)


def large_loss(seed, conns=4, warmup=1, ops=32, size=64, response_size=16384, mss=1448):
    cell, server, client = _flextoe_pair(seed, "large-loss")
    opened = []
    _echo_pairs(cell, server, client, conns, warmup, ops, size, response_size=response_size,
                opened=opened)
    cell.run_to_barrier()
    schedule = {}
    for sock in opened:
        _, _, local_port, remote_port = sock.four_tuple
        requests, responses = _loss_schedule(cell.layout, ops, size, response_size, mss)
        schedule[(local_port, remote_port)] = requests
        schedule[(remote_port, local_port)] = responses
    # start_ns is relative to installation, which happens at the barrier.
    plan = api.FaultPlan("perf-large-loss").add(ScheduledLoss(schedule))
    cell.fault_log = cell.bed.install_fault_plan(plan).log
    cell.extras["scheduled_drops"] = sum(len(offsets) for offsets in schedule.values())
    return [cell]


# -- sparse-idle ------------------------------------------------------------------

_IDLE_CONTEXT = 500
_IDLE_BUFFER_BYTES = 4096
_IDLE_PEER_BASE = 11 << 24  # 11.0.0.0/8: cannot collide with testbed hosts


def sparse_idle(seed, idle_conns=20_000, conns=8, warmup=2, ops=49, size=64,
                think_ns=4_000_000, horizon_ns=200_000_000):
    # Periodic NIC->host state snapshots scan every installed connection
    # (11 s of host time per 200 sim-ms at 20 000 connections); scale
    # runs turn them off, as bench/shard.py does.
    config = api.ControlPlaneConfig(snapshot_interval_ns=0)
    cell, server, client = _flextoe_pair(seed, "sparse-idle", server_config=config,
                                         horizon_ns=horizon_ns)
    recovery = server.control_plane.recovery
    server.nic.register_context(_IDLE_CONTEXT, capacity=4)
    region = server.machine.memory.alloc(_IDLE_BUFFER_BYTES)
    shared = (region, region.addr, _IDLE_BUFFER_BYTES)
    rss0 = vm_rss_bytes()
    started = time.perf_counter()
    for i in range(idle_conns):
        recovery.adopt_offloaded(
            four_tuple=(server.ip, _IDLE_PEER_BASE + i, 9, 40000),
            peer_mac=client.mac,
            local_mac=server.mac,
            iss=1,
            irs=1,
            context_id=_IDLE_CONTEXT,
            opaque=None,
            rx_buffer=shared,
            tx_buffer=shared,
        )
    cell.extras["install_s"] = time.perf_counter() - started
    cell.extras["install_rss_bytes"] = vm_rss_bytes() - rss0
    cell.extras["installed"] = idle_conns
    # Start offsets spread over one think period: ops meet an idle NIC.
    # The last op starts before (ops - 1) * think + think, inside the horizon.
    _echo_pairs(cell, server, client, conns, warmup, ops, size, think_ns=think_ns,
                stagger_ns=think_ns - think_ns // 40)
    return [cell.run_to_barrier()]


# -- conn-churn -------------------------------------------------------------------


def _churn_server(cell, ctx, port):
    """Echoes whatever arrives; forgets a connection at the peer's FIN.

    It does not close its own end: closing a connection whose peer FIN
    has already arrived can have the control plane tear the connection
    down before the NIC has sent the FIN (control/plane.py checks
    ``done`` before the HC_FIN descriptor is consumed), and a later
    connection that reuses the index then sends it. 0.3 % of lifecycles
    failed that way, so the workload closes on the client side only.
    """
    listener = ctx.listen(port, backlog=1024)
    epoll = api.EventPoll(ctx)

    def acceptor():
        while True:
            epoll.register((yield from ctx.accept(listener)))

    cell.sim.process(acceptor(), name="churn-acceptor")
    while True:
        for sock in (yield from epoll.wait()):
            data = yield from ctx.recv(sock, RECV_MAX, blocking=False)
            if data is None:
                continue
            if data == b"":
                epoll.unregister(sock)
                continue
            yield from ctx.send(sock, data)


def _lifecycle(ctx, server_ip, port, request):
    sock = yield from ctx.connect(server_ip, port)
    ok = yield from rpc(ctx, sock, request, request)
    yield from ctx.close(sock)
    return ok


def _churn_worker(cell, ctx, server_ip, worker, listeners, size, warmup, ops, start_offset_ns):
    sim = cell.sim
    rng = cell.client_rng()
    for _ in range(warmup):
        if not (yield from _lifecycle(ctx, server_ip, 7000 + worker % listeners, rng.randbytes(size))):
            raise StuckRun("conn-churn: warm-up lifecycle failed")
    yield from cell.park(start_offset_ns)
    for n in range(ops):
        request = rng.randbytes(size)
        start = sim.now
        ok = yield from _lifecycle(ctx, server_ip, 7000 + (worker + n) % listeners, request)
        cell.record(ok, sim.now - start, 2 * size)


def _install_firewall(server):
    """The asm firewall as the server NIC's ingress chain, installed the
    way bench/attack.py installs its detector."""
    program, maps = api.firewall_asm_program()
    for decoy in ("10.0.0.66", "10.9.9.1"):
        api.block_ip(maps[api.BLACKLIST_FD], api.str_to_ip(decoy))
    adapter = api.XdpAdapter(program=program, maps=maps, jit=True, name="perf-firewall")
    chain = api.ModuleChain([adapter])
    server.nic._ingress_modules = chain
    server.nic.datapath.ingress_modules = chain
    return adapter


def conn_churn(seed, workers=8, listeners=4, warmup=1, ops=40, size=256):
    cell, server, client = _flextoe_pair(seed, "conn-churn")
    cell.xdp = _install_firewall(server)
    for i in range(listeners):
        cell.sim.process(_churn_server(cell, server.new_context(i), 7000 + i), name="churn%d" % i)
    for worker in range(workers):
        cell.add_client(
            _churn_worker(cell, client.new_context(worker), server.ip, worker, listeners, size,
                          warmup, ops, cell.layout.randrange(STAGGER_NS)),
            ops,
        )
    return [cell.run_to_barrier()]


# -- baseline-stacks --------------------------------------------------------------

BASELINE_STACKS = (
    ("linux", api.add_linux_host),
    ("tas", api.add_tas_host),
    ("chelsio", api.add_chelsio_host),
)


def baseline_stacks(seed, conns=16, warmup=2, ops=98, size=64):
    cells = []
    for label, add_host in BASELINE_STACKS:
        bed = api.Testbed(seed=seed)
        server = add_host(bed, "server")
        client = add_host(bed, "client")
        bed.seed_all_arp()
        cell = Cell(label, bed, seed)
        _echo_pairs(cell, server, client, conns, warmup, ops, size)
        cells.append(cell.run_to_barrier())
    return cells


BUILDERS = {
    "echo-small": echo_small,
    "large-loss": large_loss,
    "sparse-idle": sparse_idle,
    "conn-churn": conn_churn,
    "baseline-stacks": baseline_stacks,
}

#: Sizes for the harness tests' smoke runs (a fraction of a second each).
TINY = {
    "echo-small": dict(conns=2, ops=3),
    "large-loss": dict(conns=1, ops=32),
    "sparse-idle": dict(idle_conns=50, conns=2, ops=2, think_ns=200_000, horizon_ns=1_000_000),
    "conn-churn": dict(workers=2, listeners=2, ops=3),
    "baseline-stacks": dict(conns=2, ops=3),
}
