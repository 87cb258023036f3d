"""Baseline stacks: one host model under a per-stack personality.

A :class:`BaselineHost` runs one :class:`Personality`'s TCP on a
machine. Its :class:`BaselineContext`/:class:`BaselineSocket` expose the
same generator API as libTOE, so applications (echo, Memcached, RPC
clients) run unmodified on any stack. :func:`add_baseline_host` builds
every baseline host; ``add_linux_host``/``add_tas_host``/
``add_chelsio_host`` name the three personalities.
"""

import random
import zlib
from collections import deque, namedtuple

from repro.baselines.costs import CHELSIO_COSTS, LINUX_COSTS, TAS_COSTS
from repro.baselines.engine import HostTcpEngine, TcpEngineConfig
from repro.host import Machine
from repro.host.arp import ArpResolver
from repro.host.cpu import CAT_DRIVER, CAT_OTHER, CAT_SOCKETS, CAT_TCP
from repro.libtoe.errors import ConnectRefusedError, ToeError
from repro.sim import Resource, Store

#: Where a personality's protocol work runs.
KERNEL = "kernel"  # host cores; TCP serialized by a coarse kernel lock
FAST_PATH = "fast-path"  # dedicated fast-path cores, no lock
TOE = "toe"  # the NIC; the host's TOE driver runs under the kernel lock

#: Softirq workers draining a kernel-driven stack's receive queue (a
#: fast path runs one per fast-path core).
KERNEL_RX_WORKERS = 4
#: The hardwired TOE's concurrent segments and service time per segment.
TOE_CAPACITY = 16
TOE_SERVICE_NS = 100

#: What differs between the baseline stacks: a name, host cycle costs,
#: the engine's TCP rules, where protocol work runs (``runs_on``) and,
#: on a fast path, how many of the machine's last cores it claims.
Personality = namedtuple("Personality", "name costs engine_config runs_on fast_path_cores", defaults=(0,))

#: Linux: versatile but bulky (paper §2.1). Full SACK recovery and
#: unrestricted reassembly make it the most loss-robust stack (Fig 15b),
#: but syscall overheads, a coarse kernel lock and interrupt wakeup
#: latency cap its throughput and multi-core scaling (Figs 9/10/16).
LINUX = Personality(
    "linux",
    LINUX_COSTS,
    TcpEngineConfig(recovery="sack", reassembly="full", delayed_ack_segments=2, rto_ns=2_000_000, min_rto_ns=1_000_000),
    KERNEL,
)
#: TAS (Kaufmann et al.): a protected fast path on dedicated host cores
#: handles common-case TCP; applications use per-core context queues
#: without kernel calls. Low per-request cost and good scaling (Figs
#: 9/14), go-back-N recovery with out-of-order drop (Fig 15).
TAS = Personality(
    "tas",
    TAS_COSTS,
    TcpEngineConfig(recovery="gbn", reassembly="drop", delayed_ack_segments=1, rto_ns=1_000_000, min_rto_ns=500_000),
    FAST_PATH,
    fast_path_cores=4,
)
#: Chelsio Terminator: TCP runs in fixed-function NIC hardware, so host
#: TCP cycles nearly vanish (Table 1) and unidirectional streaming at
#: 100 Gbps is its strength (Fig 13a). The hardwired engine cannot be
#: adapted: recovery is RTO-only with a conservative minimum (Fig 15
#: collapse), reassembly is a single interval, and the kernel-based
#: driver + epoll dominate RPC cost (Figs 9/11/14).
CHELSIO = Personality(
    "chelsio",
    CHELSIO_COSTS,
    TcpEngineConfig(recovery="rto_only", reassembly="interval", delayed_ack_segments=2, rto_ns=5_000_000, min_rto_ns=5_000_000),
    TOE,
)


class Listener:
    def __init__(self, ctx, port, backlog):
        self.ctx = ctx
        self.port = port
        self.backlog = backlog
        self.ready = deque()
        self.waiters = deque()


class BaselineSocket:
    """A connection as the application sees it (libTOE-compatible)."""

    __slots__ = ("ctx", "conn", "connected", "bytes_sent", "bytes_received", "reset")

    def __init__(self, ctx, conn):
        self.ctx = ctx
        self.conn = conn
        self.connected = True
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reset = False

    @property
    def readable(self):
        return self.conn.readable or self.reset

    @property
    def peer_fin(self):
        return self.conn.rx_fin_pos is not None and self.conn.rcv_nxt_pos >= self.conn.rx_fin_pos

    @property
    def conn_index(self):
        return id(self.conn)

    def __repr__(self):
        return "<BaselineSocket {} state={}>".format(self.conn.four_tuple, self.conn.state)


class BaselineContext:
    """Per-app-thread handle; mirrors LibToeContext's surface."""

    def __init__(self, host, core):
        self.host = host
        self.sim = host.sim
        self.core = core
        self.epolls = []
        self._waiters = []

    # -- setup ------------------------------------------------------------

    def listen(self, port, backlog=128):
        return self.host.listen(self, port, backlog)

    def accept(self, listener):
        yield self.core.run(self.host.personality.costs.sockets_recv, CAT_SOCKETS)
        while not listener.ready:
            waiter = self.sim.event()
            listener.waiters.append(waiter)
            yield waiter
        conn = listener.ready.popleft()
        sock = BaselineSocket(self, conn)
        self.host.bind_socket(conn, sock)
        return sock

    def connect(self, remote_ip, remote_port):
        costs = self.host.personality.costs
        yield self.core.run(costs.sockets_send, CAT_SOCKETS)
        yield self.core.run(costs.other_per_op, CAT_OTHER)
        conn = yield from self.host.connect(self, remote_ip, remote_port)
        sock = BaselineSocket(self, conn)
        self.host.bind_socket(conn, sock)
        return sock

    # -- data ----------------------------------------------------------------

    def send(self, sock, data, blocking=True):
        host = self.host
        costs = host.personality.costs
        view = memoryview(data)
        total = 0
        while view:
            accepted = yield from host.tcp_send(self, sock.conn, bytes(view))
            if accepted == 0:
                if not blocking:
                    return total
                yield from self.wait_any()
                continue
            yield self.core.run(
                costs.sockets_send + costs.per_kb_copy * (accepted // 1024), CAT_SOCKETS
            )
            yield self.core.run(costs.other_per_op, CAT_OTHER)
            sock.bytes_sent += accepted
            total += accepted
            view = view[accepted:]
        return total

    def recv(self, sock, max_bytes, blocking=True):
        host = self.host
        costs = host.personality.costs
        while not sock.conn.readable:
            if sock.reset:
                raise ToeError("connection reset")
            if sock.peer_fin:
                return b""
            if not blocking:
                return None
            yield from self.wait_any()
        yield self.core.run(costs.sockets_recv, CAT_SOCKETS)
        yield self.core.run(costs.other_per_op, CAT_OTHER)
        data = host.tcp_recv(self, sock.conn, max_bytes)
        if data:
            copy = costs.per_kb_copy * (len(data) // 1024)
            if copy:
                yield self.core.run(copy, CAT_SOCKETS)
        sock.bytes_received += len(data)
        return data

    def close(self, sock):
        yield self.core.run(self.host.personality.costs.sockets_send, CAT_SOCKETS)
        yield from self.host.tcp_close(self, sock.conn)

    # -- events ------------------------------------------------------------------

    def dispatch(self):
        return 0  # engine callbacks push state directly

    def wake(self):
        waiters = self._waiters
        self._waiters = []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def wait_any(self):
        waiter = self.sim.event()
        self._waiters.append(waiter)
        yield waiter
        costs = self.host.personality.costs
        latency = costs.wakeup_latency_ns
        if latency:
            if costs.wakeup_jitter_prob and self.host.jitter_rng.random() < costs.wakeup_jitter_prob:
                # Host scheduler preemption: occasional long wakeup.
                latency *= costs.wakeup_jitter_mult
            yield self.sim.timeout(latency)

    def epoll_cost_cycles(self, n_watched):
        costs = self.host.personality.costs
        return costs.epoll_base + (costs.epoll_per_conn_milli * n_watched) // 1000


class BaselineHost:
    """A machine running one baseline stack: the engine's callbacks
    (``HostTcpEngine``'s ``callbacks`` protocol) are its methods."""

    def __init__(self, sim, testbed, name, personality, n_cores=20, **attach_kwargs):
        self.sim = sim
        self.name = name
        self.personality = personality
        self.machine = Machine(sim, name, n_cores=n_cores)
        station = testbed.topology.attach(name, **attach_kwargs)
        self.station = station
        self.mac = station.mac
        self.ip = station.ip
        self.port = station.port
        self.port.receiver = self._on_rx_frame
        self.engine = HostTcpEngine(self.mac, self.ip, personality.engine_config, self)
        self.listeners = {}
        self.connect_waiters = {}
        self._sockets = {}
        self.arp = ArpResolver(sim, self.mac, self.ip, self.transmit)
        self._ephemeral = 42_000
        self._rx_queue = Store(sim, name="{}-rxq".format(name))
        self._irq_frames = deque()  # received, interrupt not yet taken
        # crc32, not hash(): str hash is salted per process, and the
        # golden-digest/bench suites need cross-process determinism.
        self.jitter_rng = random.Random(0xC0FFEE ^ zlib.crc32(name.encode()))
        self._rx_rr = 0
        self.csum_drops = 0
        runs_on = personality.runs_on
        self._kernel_mutex = None if runs_on == FAST_PATH else Resource(sim, capacity=1)
        self._nic_toe = Resource(sim, capacity=TOE_CAPACITY) if runs_on == TOE else None
        # The hardwired TOE's per-connection engine state serializes RX
        # and TX of one connection (it is optimized for unidirectional
        # streaming, paper §5.2) — one lock per four-tuple.
        self._toe_conn_locks = {}
        if runs_on == FAST_PATH:
            self._fastpath_cores = self.machine.cores[-personality.fast_path_cores :]
            rx_workers = personality.fast_path_cores
        else:
            rx_workers = KERNEL_RX_WORKERS
        for i in range(rx_workers):
            sim.process(self._rx_loop(i), name="{}-rx{}".format(name, i))
        sim.process(self._timer_loop(), name="{}-tcp-timers".format(name))

    # -- addressing ------------------------------------------------------------

    def seed_arp(self, ip, mac):
        self.arp.table[ip] = mac

    def _next_port(self):
        self._ephemeral += 1
        if self._ephemeral > 65_000:
            self._ephemeral = 42_000
        return self._ephemeral

    # -- app-facing --------------------------------------------------------------

    def new_context(self, core_index=0):
        return BaselineContext(self, self.machine.cores[core_index])

    def listen(self, ctx, port, backlog=128):
        if port in self.listeners:
            raise ValueError("port {} already bound".format(port))
        listener = Listener(ctx, port, backlog)
        self.listeners[port] = listener
        return listener

    def connect(self, ctx, remote_ip, remote_port):
        peer_mac = yield from self.arp.resolve(remote_ip)
        four = (self.ip, remote_ip, self._next_port(), remote_port)
        waiter = self.sim.event()
        self.connect_waiters[four] = waiter
        self.engine.open(four, peer_mac, self.sim.now)
        conn = yield waiter
        if conn is None:
            raise ConnectRefusedError("connect failed")
        return conn

    def bind_socket(self, conn, sock):
        self._sockets[conn.four_tuple] = sock

    def tcp_send(self, ctx, conn, data):
        """Charge TX protocol cycles, then hand bytes to the engine."""
        accepted = min(len(data), conn.tx_free)
        if accepted <= 0:
            return 0
        segments = -(-accepted // self.engine.config.mss)
        costs = self.personality.costs
        cycles = (costs.tcp_tx + costs.driver_tx) * segments
        yield from self._run_protocol(ctx.core, cycles, conn, len_hint=accepted)
        return self.engine.app_send(conn, data[:accepted], self.sim.now)

    def tcp_recv(self, ctx, conn, max_bytes):
        return self.engine.app_recv(conn, max_bytes, self.sim.now)

    def tcp_close(self, ctx, conn):
        costs = self.personality.costs
        yield from self._run_protocol(ctx.core, costs.tcp_tx, conn)
        self.engine.app_close(conn, self.sim.now)

    def _toe_process(self, four_tuple, n_segments=1):
        """TOE engine occupancy: per-connection serialized service."""
        lock = self._toe_conn_locks.get(four_tuple)
        if lock is None:
            lock = self._toe_conn_locks[four_tuple] = Resource(self.sim, capacity=1)
        grant = yield lock.request()
        toe = yield self._nic_toe.request()
        yield self.sim.timeout(TOE_SERVICE_NS * n_segments)
        toe.release()
        grant.release()

    def _run_protocol(self, core, cycles, conn, len_hint=1):
        """Run protocol cycles where the personality runs them."""
        if self._nic_toe is not None:
            # TOE: the NIC does protocol work; the host pays the complex
            # TOE driver (buffer management + synchronization, §2.1),
            # which runs under the kernel lock like any driver.
            lock = yield self._kernel_mutex.request()
            yield core.run(self.personality.costs.driver_tx, CAT_DRIVER)
            lock.release()
            segments = -(-max(1, len_hint) // self.engine.config.mss)
            yield from self._toe_process(conn.four_tuple, n_segments=segments)
        elif self._kernel_mutex is not None:
            grant = yield self._kernel_mutex.request()
            yield core.run(cycles, CAT_TCP)
            grant.release()
        else:
            yield core.run(cycles, CAT_TCP)

    # -- receive path ---------------------------------------------------------

    def _on_rx_frame(self, frame):
        # NIC checksum offload: payloads corrupted in flight (marked
        # ``csum_bad`` by repro.faults) fail verification and are dropped
        # before the stack sees them, as on real hardware.
        if frame.get_meta("csum_bad"):
            self.csum_drops += 1
            return
        delay = self.personality.costs.interrupt_delay_ns
        if delay:
            # Interrupt + softirq scheduling latency: delays delivery
            # without occupying a core (coalescing pipelines it); constant.
            self._irq_frames.append(frame)
            self.sim._schedule(self.sim.now + int(delay), self._irq)
        else:
            self._rx_queue.deliver(frame)

    def _irq(self, _step):
        self._rx_queue.deliver(self._irq_frames.popleft())

    def _rx_loop(self, index):
        while True:
            frame = yield self._rx_queue.get()
            if frame.arp is not None:
                self.arp.handle(frame)
                continue
            if frame.tcp is None:
                continue
            yield from self._process_segment(index, frame)

    def _process_segment(self, index, frame):
        costs = self.personality.costs
        if self._nic_toe is not None:
            four = (frame.ip.dst, frame.ip.src, frame.tcp.dport, frame.tcp.sport)
            yield from self._toe_process(four)
            # Per-segment TOE driver work (descriptor reaping) on a core,
            # serialized by the kernel lock.
            self._rx_rr += 1
            core = self.machine.cores[self._rx_rr % len(self.machine.cores)]
            lock = yield self._kernel_mutex.request()
            yield core.run(costs.driver_rx, CAT_DRIVER)
            lock.release()
        elif self._kernel_mutex is None:
            # The fast path: this worker's own core, no lock.
            core = self._fastpath_cores[index % len(self._fastpath_cores)]
            yield core.run(costs.driver_rx, CAT_DRIVER)
            yield core.run(costs.tcp_rx, CAT_TCP)
            extra = costs.per_kb_copy * (len(frame.payload) // 1024)
            if extra:
                yield core.run(extra, CAT_TCP)
        else:
            self._rx_rr += 1
            core = self.machine.cores[self._rx_rr % len(self.machine.cores)]
            # Driver work runs outside the lock; TCP processing (shared
            # protocol state) serializes under it. GRO halves the
            # per-segment TCP cost for full segments.
            gro = 2 if len(frame.payload) >= 1024 else 1
            yield core.run(costs.driver_rx // gro, CAT_DRIVER)
            grant = yield self._kernel_mutex.request()
            cycles = costs.tcp_rx // gro + costs.per_kb_copy * (len(frame.payload) // 1024)
            yield core.run(cycles, CAT_TCP)
            grant.release()
        self.engine.on_segment(frame, self.sim.now)

    def _timer_loop(self):
        while True:
            yield self.sim.timeout(100_000)
            self.engine.tick(self.sim.now)

    # -- transmit --------------------------------------------------------------------

    def transmit(self, frame):
        self.port.send(frame)

    # -- engine callbacks ------------------------------------------------------------

    def syn_to_unknown_port(self, frame):
        return frame.tcp.dport in self.listeners

    def on_connected(self, conn):
        waiter = self.connect_waiters.pop(conn.four_tuple, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(conn)

    def on_accept(self, conn):
        listener = self.listeners.get(conn.four_tuple[2])
        if listener is None:
            self.engine.close_silently(conn)
            return
        if listener.waiters:
            # Hand the connection straight to a blocked accept().
            listener.ready.append(conn)
            listener.waiters.popleft().succeed()
        elif len(listener.ready) < listener.backlog:
            listener.ready.append(conn)
        else:
            # No room in the accept queue: reset the connection, as Linux
            # does with tcp_abort_on_overflow, rather than keep it unqueued.
            self.engine.abort(conn, self.sim.now)

    def on_data(self, conn):
        """Wake the connection's socket: its context and its epolls."""
        sock = self._sockets.get(conn.four_tuple)
        if sock is None:
            return
        sock.ctx.wake()
        for epoll in sock.ctx.epolls:
            epoll.on_event(sock)

    on_tx_space = on_eof = on_data

    def on_reset(self, conn):
        sock = self._sockets.get(conn.four_tuple)
        waiter = self.connect_waiters.pop(conn.four_tuple, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)
        if sock is not None:
            sock.reset = True
            self.on_data(conn)


def add_baseline_host(testbed, name, personality, n_cores=20, **attach_kwargs):
    """Attach a host running ``personality``'s stack to a testbed."""
    mac, ip = testbed.addresses()
    attach_kwargs.setdefault("mac", mac)
    attach_kwargs.setdefault("ip", ip)
    host = BaselineHost(testbed.sim, testbed, name, personality, n_cores=n_cores, **attach_kwargs)
    testbed.add_host(name, host)
    return host


def add_linux_host(testbed, name, n_cores=20, **attach_kwargs):
    """Attach a Linux-stack host to a testbed."""
    return add_baseline_host(testbed, name, LINUX, n_cores, **attach_kwargs)


def add_tas_host(testbed, name, n_cores=20, fast_path_cores=TAS.fast_path_cores, **attach_kwargs):
    """Attach a TAS host. The fast path claims the machine's last cores;
    application work should use the earlier ones."""
    if fast_path_cores < 1:
        raise ValueError("a TAS host needs a fast-path core, not {}".format(fast_path_cores))
    return add_baseline_host(testbed, name, TAS._replace(fast_path_cores=fast_path_cores), n_cores, **attach_kwargs)


def add_chelsio_host(testbed, name, n_cores=20, link_rate_bps=100_000_000_000, **attach_kwargs):
    """Attach a Chelsio-TOE host (100 Gbps NIC, per the testbed)."""
    attach_kwargs.setdefault("rate_bps", link_rate_bps)
    return add_baseline_host(testbed, name, CHELSIO, n_cores, **attach_kwargs)
