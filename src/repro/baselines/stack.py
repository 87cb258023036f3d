"""Baseline stack plumbing: NIC delivery, cycle charging, socket API.

A :class:`BaselineHost` runs one personality's TCP on a machine. Its
:class:`BaselineContext`/:class:`BaselineSocket` expose the same
generator API as libTOE, so applications (echo, Memcached, RPC clients)
run unmodified on any stack.
"""

import random
import zlib
from collections import deque

from repro.baselines.engine import HostTcpEngine
from repro.host import Machine
from repro.host.cpu import CAT_DRIVER, CAT_OTHER, CAT_SOCKETS, CAT_TCP
from repro.libtoe.errors import ConnectRefusedError, ToeError
from repro.proto import ARP_REPLY, ARP_REQUEST, ArpHeader, ETHERTYPE_ARP, EthernetHeader, Frame
from repro.sim import Resource, Store, Timeout

BROADCAST_MAC = (1 << 48) - 1


class Personality:
    """What differs between Linux / TAS / Chelsio (see subclasses)."""

    name = "base"

    def __init__(self, costs, engine_config):
        self.costs = costs
        self.engine_config = engine_config
        #: Coarse in-kernel lock serializing all TCP work (Linux).
        self.kernel_lock = False
        #: Number of machine cores dedicated to the stack fast path
        #: (TAS); 0 means processing runs on interrupt/app cores.
        self.dedicated_cores = 0
        #: TCP processing happens on the NIC (Chelsio TOE).
        self.nic_tcp = False
        #: NIC TOE concurrent segment capacity and service time.
        self.nic_tcp_capacity = 8
        self.nic_tcp_service_ns = 250
        #: RX dispatcher parallelism when not using dedicated cores.
        self.rx_dispatchers = 2

    def charge_rx(self, host, core, frame):
        """Generator: host cycles for receiving one segment."""
        costs = self.costs
        yield core.run(costs.driver_rx, CAT_DRIVER)
        yield core.run(costs.tcp_rx, CAT_TCP)
        extra = costs.per_kb_copy * (len(frame.payload) // 1024)
        if extra:
            yield core.run(extra, CAT_TCP)


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


class _EngineCallbacks:
    """Bridges engine events to sockets/contexts/NIC."""

    def __init__(self, host):
        self.host = host

    def transmit(self, frame):
        self.host.transmit(frame)

    def syn_to_unknown_port(self, frame):
        return frame.tcp.dport in self.host.listeners

    def on_connected(self, conn):
        waiter = self.host.connect_waiters.pop(conn.four_tuple, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(conn)

    def on_accept(self, conn):
        port = conn.four_tuple[2]
        listener = self.host.listeners.get(port)
        if listener is None:
            self.host.engine.close_silently(conn)
            return
        if listener.waiters:
            # Hand the connection straight to a blocked accept().
            listener.ready.append(conn)
            listener.waiters.popleft().succeed()
        elif len(listener.ready) < listener.backlog:
            listener.ready.append(conn)

    def _wake_sock(self, conn):
        sock = self.host.socket_of(conn)
        if sock is None:
            return
        sock.ctx.wake()
        for epoll in sock.ctx.epolls:
            epoll.on_event(sock)

    def on_data(self, conn):
        self._wake_sock(conn)

    def on_tx_space(self, conn):
        self._wake_sock(conn)

    def on_eof(self, conn):
        self._wake_sock(conn)

    def on_reset(self, conn):
        sock = self.host.socket_of(conn)
        waiter = self.host.connect_waiters.pop(conn.four_tuple, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)
        if sock is not None:
            sock.reset = True
            self._wake_sock(conn)


class BaselineHost:
    """A machine running one baseline stack."""

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
        self.engine = HostTcpEngine(self.mac, self.ip, personality.engine_config, _EngineCallbacks(self))
        self.listeners = {}
        self.connect_waiters = {}
        self._sockets = {}
        self.arp_table = {}
        self._arp_waiters = {}
        self._ephemeral = 42_000
        self._rx_queue = Store(sim, name="{}-rxq".format(name))
        self._irq_frames = deque()  # received, interrupt not yet taken
        # crc32, not hash(): str hash is salted per process, and the
        # golden-digest/bench suites need cross-process determinism.
        self.jitter_rng = random.Random(0xC0FFEE ^ zlib.crc32(name.encode()))
        self._rx_rr = 0
        self.csum_drops = 0
        self._kernel_lock = Resource(sim, capacity=1) if personality.kernel_lock else None
        self._nic_toe = (
            Resource(sim, capacity=personality.nic_tcp_capacity) if personality.nic_tcp else None
        )
        # The hardwired TOE's per-connection engine state serializes RX
        # and TX of one connection (it is optimized for unidirectional
        # streaming, paper §5.2) — one lock per four-tuple.
        self._toe_conn_locks = {}
        if personality.dedicated_cores:
            self._fastpath_cores = self.machine.cores[-personality.dedicated_cores :]
        else:
            self._fastpath_cores = None
        for i in range(max(1, personality.rx_dispatchers)):
            sim.process(self._rx_loop(i), name="{}-rx{}".format(name, i))
        sim.process(self._timer_loop(), name="{}-tcp-timers".format(name))

    # -- addressing ------------------------------------------------------------

    def seed_arp(self, ip, mac):
        self.arp_table[ip] = mac

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
        peer_mac = yield from self._resolve(remote_ip)
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

    def socket_of(self, conn):
        return self._sockets.get(conn.four_tuple)

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

    def _toe_conn_lock(self, four_tuple):
        lock = self._toe_conn_locks.get(four_tuple)
        if lock is None:
            lock = Resource(self.sim, capacity=1)
            self._toe_conn_locks[four_tuple] = lock
        return lock

    def _toe_process(self, four_tuple, n_segments=1):
        """TOE engine occupancy: per-connection serialized service."""
        lock = self._toe_conn_lock(four_tuple)
        grant = yield lock.request()
        toe = yield self._nic_toe.request()
        yield self.sim.timeout(self.personality.nic_tcp_service_ns * n_segments)
        toe.release()
        grant.release()

    def _run_protocol(self, core, cycles, conn, len_hint=1):
        """Run protocol cycles under the personality's concurrency model."""
        if self._nic_toe is not None:
            # TOE: the NIC does protocol work; the host pays the complex
            # TOE driver (buffer management + synchronization, §2.1),
            # which runs under the kernel lock like any driver.
            if self._kernel_lock is not None:
                lock = yield self._kernel_lock.request()
                yield core.run(self.personality.costs.driver_tx, CAT_DRIVER)
                lock.release()
            else:
                yield core.run(self.personality.costs.driver_tx, CAT_DRIVER)
            segments = -(-max(1, len_hint) // self.engine.config.mss)
            yield from self._toe_process(conn.four_tuple, n_segments=segments)
            return
        if self._kernel_lock is not None:
            grant = yield self._kernel_lock.request()
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
                self._handle_arp(frame)
                continue
            if frame.tcp is None:
                continue
            yield from self._process_segment(index, frame)

    def _process_segment(self, index, frame):
        personality = self.personality
        if self._nic_toe is not None:
            four = (frame.ip.dst, frame.ip.src, frame.tcp.dport, frame.tcp.sport)
            yield from self._toe_process(four)
            # Per-segment TOE driver work (descriptor reaping) on a core,
            # serialized by the kernel lock.
            self._rx_rr += 1
            core = self.machine.cores[self._rx_rr % len(self.machine.cores)]
            if self._kernel_lock is not None:
                lock = yield self._kernel_lock.request()
                yield core.run(personality.costs.driver_rx, CAT_DRIVER)
                lock.release()
            else:
                yield core.run(personality.costs.driver_rx, CAT_DRIVER)
        else:
            if self._fastpath_cores is not None:
                core = self._fastpath_cores[index % len(self._fastpath_cores)]
            else:
                self._rx_rr += 1
                app_cores = self.machine.cores
                core = app_cores[self._rx_rr % len(app_cores)]
            if self._kernel_lock is not None:
                # Driver work runs outside the lock; TCP processing
                # (shared protocol state) serializes under it. GRO
                # halves the per-segment TCP cost for full segments.
                costs = personality.costs
                gro = 2 if len(frame.payload) >= 1024 else 1
                yield core.run(costs.driver_rx // gro, CAT_DRIVER)
                grant = yield self._kernel_lock.request()
                cycles = costs.tcp_rx // gro + costs.per_kb_copy * (len(frame.payload) // 1024)
                yield core.run(cycles, CAT_TCP)
                grant.release()
            else:
                yield from personality.charge_rx(self, core, frame)
        self.engine.on_segment(frame, self.sim.now)

    def _timer_loop(self):
        while True:
            yield self.sim.timeout(100_000)
            self.engine.tick(self.sim.now)

    # -- ARP ----------------------------------------------------------------------

    def _handle_arp(self, frame):
        arp = frame.arp
        if arp.op == ARP_REQUEST and arp.target_ip == self.ip:
            eth = EthernetHeader(dst=arp.sender_mac, src=self.mac, ethertype=ETHERTYPE_ARP)
            self.transmit(Frame(eth, arp=arp.reply(self.mac), born_at=self.sim.now))
            self.arp_table[arp.sender_ip] = arp.sender_mac
        elif arp.op == ARP_REPLY:
            self.arp_table[arp.sender_ip] = arp.sender_mac
            for waiter in self._arp_waiters.pop(arp.sender_ip, []):
                if not waiter.triggered:
                    waiter.succeed(arp.sender_mac)

    def _resolve(self, ip):
        if ip in self.arp_table:
            return self.arp_table[ip]
        waiter = self.sim.event()
        self._arp_waiters.setdefault(ip, []).append(waiter)
        request = ArpHeader.request(self.mac, self.ip, ip)
        eth = EthernetHeader(dst=BROADCAST_MAC, src=self.mac, ethertype=ETHERTYPE_ARP)
        self.transmit(Frame(eth, arp=request, born_at=self.sim.now))
        yield self.sim.any_of([waiter, Timeout(self.sim, 5_000_000)])
        if ip not in self.arp_table:
            raise ConnectRefusedError("ARP resolution failed for {}".format(ip))
        return self.arp_table[ip]

    # -- transmit --------------------------------------------------------------------

    def transmit(self, frame):
        self.port.send(frame)
