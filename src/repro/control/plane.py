"""The control plane proper: ARP, handshakes, timers, congestion control.

One :class:`ControlPlane` serves one host's FlexTOE NIC. It drains the
frames the data-path diverts (SYN/SYN-ACK/RST/ARP), runs the TCP
connection state machine, installs/removes data-path state, retransmits
on timeout (go-back-N via HC descriptors), sends zero-window probes, and
runs the congestion-control rate loop. Timers and congestion control are
one :class:`GridPoll`: a 50 us grid that ticks only while a handshake or
connection is armed — by the data path, the instant it leaves something
for a visit to find — and visits only those (DESIGN §12).

Simplification vs. a production stack (documented in DESIGN.md): the
server side completes accept() when the SYN-ACK is sent rather than on
the final handshake ACK — the data-path state is installed alongside the
SYN-ACK so early data is handled; a lost SYN-ACK is covered by the
client's SYN retransmission.

That simplification is also the SYN-flood attack surface: every SYN
buys 512KB of host buffers plus a CONN_SLAB slot before the peer has
proven liveness. ``ControlPlaneConfig(syn_defense_enabled=True)``
switches the server side to overload-safe three-way handshakes: SYNs
park in a bounded embryonic table (half-open reaper, backlog charge)
and the data path is installed only on the final handshake ACK; past
the embryonic budget the plane answers with stateless SYN cookies so
legitimate clients still connect while the flood costs us nothing.

Admission is one host-wide limit, ``ControlPlaneConfig(max_connections=)``:
a SYN arriving while the host holds that many connections gets a RST.
"""

import struct
import zlib

from repro.control.cc.dctcp import Dctcp
from repro.control.cc.base import CcStats
from repro.control.connection import (
    ConnectionDirectory,
    EstablishedInfo,
    Listener,
    PendingConnection,
    SYN_RCVD,
    SYN_SENT,
)
from repro.control.recovery import RecoveryManager
from repro.flextoe.descriptors import (
    HC_PROBE,
    HC_RETRANSMIT,
    HostControlDescriptor,
    NOTIFY_ERROR,
    Notification,
)
from repro.flextoe.proto_logic import WINDOW_SCALE, advertised_window
from repro.host.arp import ArpResolver
from repro.libtoe.buffers import CircularBuffer
from repro.libtoe.errors import ConnectRefusedError, HandshakeTimeoutError
from repro.proto import make_tcp_frame
from repro.proto.tcp import FLAG_ACK, FLAG_RST, FLAG_SYN, TcpOptions
from repro.sim import Timeout

#: Control-plane context-queue id (reserved; app contexts start at 1).
CONTROL_CONTEXT = 0

#: Poll-grid period (timers, then congestion control, on one tick);
#: handshake retransmission timeout; how long a closing connection may
#: wait for the peer's FIN.
TIMER_TICK_NS = 50_000
SYN_RTO_NS = 1_000_000
LINGER_NS = 2_000_000
#: A connection's RTO until its first RTT sample (RFC 6298 §2.1's
#: conservative start, at the baselines' engine's scale).
INITIAL_RTO_NS = 1_000_000
#: Keys the stateless SYN cookie (overload defense).
SYN_COOKIE_SECRET = 0x5EED_CAFE


class GridPoll:
    """A poll that costs events only while something waits on it.

    ``arm()`` schedules ``body`` for the next instant ``epoch + k *
    interval_ns`` strictly after now, unless a tick is already pending;
    the tick re-arms itself while ``body()`` returns true.
    """

    def __init__(self, sim, interval_ns, body):
        self.sim = sim
        self.interval_ns = interval_ns
        self.epoch = sim.now
        self.body = body
        self.pending = False

    def arm(self):
        if not self.pending:
            self.pending = True
            delay = self.interval_ns - (self.sim.now - self.epoch) % self.interval_ns
            Timeout(self.sim, int(delay)).callbacks.append(self._tick)

    def _tick(self, _event):
        self.pending = False
        if self.body():
            self.arm()


class ControlPlaneConfig:
    def __init__(
        self,
        rx_buffer_size=256 * 1024,
        tx_buffer_size=256 * 1024,
        rto_ns=250_000,
        mss=1448,
        max_syn_retries=8,
        max_data_retries=10,
        rto_max_ns=4_000_000,
        recovery_enabled=True,
        snapshot_interval_ns=250_000,
        reboot_delay_ns=100_000,
        syn_defense_enabled=False,
        embryonic_limit=64,
        half_open_timeout_ns=4_000_000,
        challenge_ack_limit=3,
        challenge_ack_interval_ns=1_000_000,
        max_connections=None,
    ):
        self.rx_buffer_size = rx_buffer_size
        self.tx_buffer_size = tx_buffer_size
        self.rto_ns = rto_ns
        self.mss = mss
        self.max_syn_retries = max_syn_retries
        self.max_data_retries = max_data_retries
        self.rto_max_ns = rto_max_ns
        self.recovery_enabled = recovery_enabled
        self.snapshot_interval_ns = snapshot_interval_ns
        self.reboot_delay_ns = reboot_delay_ns
        # Overload defense (off by default: the legacy accept-on-SYN-ACK
        # fast path stays byte-identical unless a host opts in).
        self.syn_defense_enabled = syn_defense_enabled
        self.embryonic_limit = embryonic_limit
        self.half_open_timeout_ns = half_open_timeout_ns
        # RFC 5961 challenge-ACK rate limit (responses per interval,
        # shared with RSTs answering segments for unknown connections).
        self.challenge_ack_limit = challenge_ack_limit
        self.challenge_ack_interval_ns = challenge_ack_interval_ns
        self.max_connections = max_connections  # None: no admission limit


class ControlPlane:
    """Connection and congestion control for one FlexTOE NIC."""

    def __init__(
        self,
        sim,
        nic,
        machine,
        local_mac,
        local_ip,
        cc=None,
        cc_enabled=True,
        config=None,
    ):
        self.sim = sim
        self.nic = nic
        self.machine = machine
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.cc = cc if cc is not None else Dctcp()
        self.cc_enabled = cc_enabled
        self.config = config or ControlPlaneConfig()
        self.nic.register_context(CONTROL_CONTEXT)
        self.arp = ArpResolver(sim, local_mac, local_ip, self._control_tx)
        self.listeners = {}
        self.pending = {}  # four_tuple -> PendingConnection
        self.directory = ConnectionDirectory()
        self._iss_counter = 10_000
        self._ephemeral_port = 40_000
        self._conn_token = 0
        self.retransmits_posted = 0
        self.probes_posted = 0
        self.syn_retransmits = 0
        self.aborts = 0
        self.resets_received = 0
        # Overload-defense counters.
        self.syn_dropped = 0
        self.cookies_sent = 0
        self.cookies_validated = 0
        self.embryonic_reaped = 0
        self.challenge_acks = 0
        self.challenge_acks_limited = 0
        #: server-side handshakes currently parked in SYN_RCVD.
        self.embryonic = 0
        self._challenge_window_start = 0
        self._challenge_window_count = 0
        self.recovery = None
        self._poll = GridPoll(sim, TIMER_TICK_NS, self._poll_armed)
        nic.datapath.observer = self
        sim.process(self._rx_loop(), name="cp-rx")

    # -- failure recovery ----------------------------------------------------

    def enable_recovery(self, station=None):
        """Arm the data-path recovery subsystem (watchdog, connection
        shadow, slow-path shim on ``station``'s port). Idempotent; no-op
        when ``config.recovery_enabled`` is False."""
        if not self.config.recovery_enabled:
            return None
        if self.recovery is None:
            self.recovery = RecoveryManager(self, station=station)
        return self.recovery

    def reprogram_rate(self, entry):
        """Re-program a flow's scheduler rate (after re-offload)."""
        self._program_rate(entry.index, entry.cc_flow)

    def announce_window(self, record):
        """Send a pure ACK advertising the current receive window.

        Used after re-offload: a peer parked against the slow-path
        shim's zero window may have nothing in flight to retransmit, so
        nothing would ever reopen its window without this. It is also
        the challenge ACK's wire form."""
        proto = record.proto
        frame = self._tcp_frame(
            record.pre.peer_mac,
            record.four_tuple,
            seq=proto.seq,
            ack=proto.ack,
            flags=FLAG_ACK,
            window=advertised_window(proto),
        )
        self._control_tx(frame)

    def _control_tx(self, frame):
        """Raw TX that survives degraded mode: while the NIC is down the
        slow-path shim owns the port and transmits for us."""
        if self.recovery is not None and self.recovery.degraded and self.recovery.shim is not None:
            if self.recovery.shim.installed:
                self.recovery.shim.raw_send(frame)
                return
        self.nic.control_tx(frame)

    # -- small helpers -----------------------------------------------------

    def seed_arp(self, ip, mac):
        """Static ARP entry (used by the testbed builder for speed)."""
        self.arp.table[ip] = mac

    def _next_iss(self):
        self._iss_counter += 64_000
        return self._iss_counter & 0xFFFFFFFF

    def _next_port(self):
        self._ephemeral_port += 1
        if self._ephemeral_port > 60_000:
            self._ephemeral_port = 40_000
        return self._ephemeral_port

    def _syn_options(self):
        return TcpOptions(mss=self.config.mss, wscale=WINDOW_SCALE, sack_permitted=False)

    def _alloc_buffers(self):
        rx_region = self.machine.memory.alloc(self.config.rx_buffer_size)
        tx_region = self.machine.memory.alloc(self.config.tx_buffer_size)
        return CircularBuffer(rx_region), CircularBuffer(tx_region)

    def _tcp_frame(self, peer_mac, four_tuple, **kwargs):
        local_ip, remote_ip, local_port, remote_port = four_tuple
        return make_tcp_frame(
            self.local_mac,
            peer_mac,
            local_ip,
            remote_ip,
            local_port,
            remote_port,
            born_at=self.sim.now,
            **kwargs
        )

    # -- public API toward libTOE -------------------------------------------

    def listen(self, ctx, port, backlog=128):
        if port in self.listeners:
            raise ValueError("port {} already bound".format(port))
        listener = Listener(ctx, port, backlog)
        self.listeners[port] = listener
        return listener

    def accept_wait(self, listener):
        """Generator: wait for an established incoming connection."""
        if listener.ready:
            return listener.ready.pop(0)
        waiter = self.sim.event()
        listener.waiters.append(waiter)
        info = yield waiter
        return info

    def connect(self, ctx, remote_ip, remote_port):
        """Generator: active open; returns EstablishedInfo."""
        peer_mac = yield from self.arp.resolve(remote_ip)
        local_port = self._next_port()
        four = (self.local_ip, remote_ip, local_port, remote_port)
        iss = self._next_iss()
        pending = PendingConnection(SYN_SENT, four, iss, ctx=ctx, waiter=self.sim.event())
        pending.peer_mac = peer_mac
        self.pending[four] = pending
        self._poll.arm()
        self._send_handshake(pending)
        info = yield pending.waiter
        if info is None:
            raise ConnectRefusedError("connect to {}:{} failed".format(remote_ip, remote_port))
        return info

    def notify_close(self, conn_index):
        """libTOE close(): begin teardown monitoring for the connection."""
        entry = self.directory.get(conn_index)
        if entry is not None:
            entry.closing = True
            entry.close_requested_at = self.sim.now
            self._arm_timer(entry)

    # -- frame handling -----------------------------------------------------

    def _rx_loop(self):
        ring = self.nic.control_rx_ring()
        while True:
            frame = yield ring.get()
            self._handle_frame(frame)

    def handle_frame(self, frame):
        """Synchronous frame entry point (used by the slow-path shim)."""
        self._handle_frame(frame)

    def _handle_frame(self, frame):
        if frame.arp is not None:
            self.arp.handle(frame)
            return
        if frame.tcp is None:
            return
        tcp = frame.tcp
        if tcp.flags & FLAG_RST:
            self._handle_rst(frame)
            return
        if tcp.flags & FLAG_SYN and not (tcp.flags & FLAG_ACK):
            self._handle_syn(frame)
            return
        if tcp.flags & FLAG_SYN and tcp.flags & FLAG_ACK:
            self._handle_syn_ack(frame)
            return
        if tcp.flags & FLAG_ACK and not frame.payload:
            if self._complete_handshake(frame):
                return
            # Bare duplicate handshake ACK for a live connection: ignore.
            four = (self.local_ip, frame.ip.src, tcp.dport, tcp.sport)
            if self.directory.lookup(four) is not None:
                return
            if self.config.syn_defense_enabled:
                # RFC 793: an ACK for a connection we know nothing about
                # gets RST(seq=SEG.ACK) — but through the RFC 5961 rate
                # limiter, so an ACK storm cannot make us amplify it.
                if self._challenge_allowed():
                    self.challenge_acks += 1
                    self._send_rst(frame)
                return
            return
        # Stray data-path segment for an unknown connection: RST it so
        # the peer tears down. Under the deferred-accept defense the
        # final handshake ACK may ride on the first data segment (or the
        # data may simply outrun it through the slow path) — complete
        # the handshake and let the peer's RTO resend the payload.
        if self._complete_handshake(frame):
            return
        self._send_rst(frame)

    def _handle_syn(self, frame):
        port = frame.tcp.dport
        listener = self.listeners.get(port)
        if listener is None:
            self._send_rst(frame)
            return
        four = (self.local_ip, frame.ip.src, port, frame.tcp.sport)
        if four in self.pending:
            # SYN retransmission: resend our SYN-ACK.
            self._send_handshake(self.pending[four])
            return
        entry = self.directory.lookup(four)
        if entry is not None:
            # Established on our SYN-ACK (module docstring). The SYN that
            # established it, again, with nothing received since: that
            # SYN-ACK was lost — resend it. Any other SYN on a live
            # tuple is challenged (RFC 5961 §4).
            proto = entry.record.proto
            irs = (frame.tcp.seq + 1) & 0xFFFFFFFF
            if proto.ack == irs and proto.rx_pos == 0:
                self._handshake_tx(
                    frame.eth.src, four, FLAG_SYN | FLAG_ACK, (entry.snd_iss - 1) & 0xFFFFFFFF, irs
                )
            else:
                self._send_challenge_ack(entry)
            return
        limit = self.config.max_connections
        if limit is not None and len(self.directory) >= limit:
            self._send_rst(frame)
            return
        if listener.backlog_full():
            # listen(backlog=...) means what it says: past the bound,
            # excess SYNs are silently dropped (the peer's SYN
            # retransmission retries once accept() drains the queue).
            listener.syn_dropped += 1
            self.syn_dropped += 1
            return
        config = self.config
        if config.syn_defense_enabled and self.embryonic >= config.embryonic_limit:
            # Embryonic budget spent: fall back to a stateless SYN
            # cookie. The SYN-ACK encodes the four-tuple in its ISN; no
            # pending entry, no buffers, no slab slot until the peer
            # echoes the cookie back in its handshake ACK.
            self.cookies_sent += 1
            irs = (frame.tcp.seq + 1) & 0xFFFFFFFF
            self.arp.table.setdefault(frame.ip.src, frame.eth.src)
            self._handshake_tx(frame.eth.src, four, FLAG_SYN | FLAG_ACK, self._syn_cookie(four, irs), irs)
            return
        pending = PendingConnection(SYN_RCVD, four, self._next_iss(), listener=listener)
        pending.irs = (frame.tcp.seq + 1) & 0xFFFFFFFF
        pending.peer_mac = frame.eth.src
        pending.remote_win = frame.tcp.window
        self.arp.table.setdefault(frame.ip.src, frame.eth.src)
        self.pending[four] = pending
        self._poll.arm()
        if config.syn_defense_enabled:
            # Overload-safe path: park in the embryonic table and wait
            # for the final handshake ACK before installing any
            # data-path state. The half-open reaper bounds how long a
            # silent peer can hold the slot.
            pending.created_at = self.sim.now
            pending.embryonic = True
            self.embryonic += 1
            listener.embryonic += 1
            self._send_handshake(pending)
            return
        self._send_handshake(pending)
        # Install the data-path state now (see module docstring).
        self._establish(pending)

    def _handle_syn_ack(self, frame):
        four = (self.local_ip, frame.ip.src, frame.tcp.dport, frame.tcp.sport)
        pending = self.pending.get(four)
        if pending is None or pending.state != SYN_SENT:
            return
        pending.irs = (frame.tcp.seq + 1) & 0xFFFFFFFF
        pending.remote_win = frame.tcp.window
        # Final handshake ACK.
        ack = self._tcp_frame(
            pending.peer_mac,
            four,
            seq=(pending.iss + 1) & 0xFFFFFFFF,
            ack=pending.irs,
            flags=FLAG_ACK,
            window=0xFFFF,
        )
        self._control_tx(ack)
        self._establish(pending)

    def _handle_rst(self, frame):
        four = (self.local_ip, frame.ip.src, frame.tcp.dport, frame.tcp.sport)
        pending = self.pending.pop(four, None)
        if pending is not None:
            self._note_pending_gone(pending)
            if pending.waiter is not None and not pending.waiter.triggered:
                pending.waiter.fail(
                    ConnectRefusedError(
                        "connection to {}:{} refused".format(frame.ip.src, frame.tcp.sport)
                    )
                )
            return
        # RST against an *established* connection: validate the sequence
        # against our receive window (blind-RST hardening, RFC 5961).
        entry = self.directory.lookup(four)
        if entry is None:
            return
        proto = entry.record.proto
        offset = (frame.tcp.seq - proto.ack) & 0xFFFFFFFF
        if offset >= max(1, proto.rx_avail):
            return
        if offset != 0:
            # In-window but not an exact rcv_nxt match: RFC 5961 §3.2
            # says challenge-ACK instead of tearing down, so a blind RST
            # storm has to hit one exact sequence number per connection.
            self._send_challenge_ack(entry)
            return
        self.resets_received += 1
        self._teardown_entry(entry, "reset")

    def _teardown_entry(self, entry, reason):
        """Remove directory + NIC state and surface a typed error."""
        self.withdraw(entry.index)
        post = entry.record.post
        pair = self.nic.context_pair(post.context_id)
        if pair is not None:
            pair.nic_deliver(
                Notification(
                    NOTIFY_ERROR,
                    post.opaque,
                    entry.index,
                    context_id=post.context_id,
                    created_at=self.sim.now,
                    error=reason,
                )
            )

    def _abort_connection(self, entry):
        """Max-retry abort: RST the peer, tear down, surface a timeout."""
        record = entry.record
        rst = self._tcp_frame(
            record.pre.peer_mac,
            record.four_tuple,
            seq=record.proto.seq,
            ack=record.proto.ack,
            flags=FLAG_RST | FLAG_ACK,
        )
        self._control_tx(rst)
        self.aborts += 1
        self._teardown_entry(entry, "timeout")

    def _send_rst(self, frame):
        rst = self._tcp_frame(
            frame.eth.src,
            (self.local_ip, frame.ip.src, frame.tcp.dport, frame.tcp.sport),
            seq=frame.tcp.ack,
            ack=(frame.tcp.seq + len(frame.payload)) & 0xFFFFFFFF,
            flags=FLAG_RST | FLAG_ACK,
        )
        self._control_tx(rst)

    # -- overload defense ---------------------------------------------------

    def _challenge_allowed(self):
        """RFC 5961 §7 ACK-throttling: at most ``challenge_ack_limit``
        challenge responses per ``challenge_ack_interval_ns`` window."""
        config = self.config
        now = self.sim.now
        if now - self._challenge_window_start >= config.challenge_ack_interval_ns:
            self._challenge_window_start = now
            self._challenge_window_count = 0
        if self._challenge_window_count >= config.challenge_ack_limit:
            self.challenge_acks_limited += 1
            return False
        self._challenge_window_count += 1
        return True

    def _send_challenge_ack(self, entry):
        if not self._challenge_allowed():
            return
        self.challenge_acks += 1
        self.announce_window(entry.record)

    def _syn_cookie(self, four_tuple, irs):
        """Stateless SYN-cookie ISN for ``four_tuple``: everything the
        final handshake ACK echoes back (its ack-1) plus a secret, so we
        can validate it without having kept any per-SYN state."""
        local_ip, remote_ip, local_port, remote_port = four_tuple
        material = struct.pack(
            ">IIHHII",
            local_ip & 0xFFFFFFFF,
            remote_ip & 0xFFFFFFFF,
            local_port & 0xFFFF,
            remote_port & 0xFFFF,
            irs & 0xFFFFFFFF,
            SYN_COOKIE_SECRET,
        )
        return zlib.crc32(material) & 0xFFFFFFFF

    def _note_pending_gone(self, pending):
        """Release the embryonic charge when a SYN_RCVD pending leaves
        the table for any reason (established, reset, reaped, retried
        out)."""
        if not pending.embryonic:
            return
        pending.embryonic = False
        self.embryonic -= 1
        if pending.listener is not None:
            pending.listener.embryonic -= 1

    def _complete_handshake(self, frame):
        """Final handshake ACK at the server: establish a parked
        embryonic connection, or validate a stateless SYN cookie.

        Returns True when the frame was consumed. With the defense off
        this never fires — SYN_RCVD pendings are established on the
        SYN-ACK and the cookie path is gated on the config flag."""
        tcp = frame.tcp
        if not tcp.flags & FLAG_ACK:
            return False
        four = (self.local_ip, frame.ip.src, tcp.dport, tcp.sport)
        pending = self.pending.get(four)
        if pending is not None and pending.state == SYN_RCVD:
            if tcp.ack != ((pending.iss + 1) & 0xFFFFFFFF):
                return False
            pending.remote_win = tcp.window
            self._establish(pending)
            return True
        if not self.config.syn_defense_enabled:
            return False
        if self.directory.lookup(four) is not None:
            return False
        listener = self.listeners.get(tcp.dport)
        if listener is None:
            return False
        # Cookie validation: the peer's ack is our SYN-ACK ISN + 1 and
        # its seq is the irs the cookie was minted over.
        irs = tcp.seq & 0xFFFFFFFF
        iss = (tcp.ack - 1) & 0xFFFFFFFF
        if iss != self._syn_cookie(four, irs):
            return False
        if listener.backlog_full():
            listener.syn_dropped += 1
            self.syn_dropped += 1
            return True
        pending = PendingConnection(SYN_RCVD, four, iss, listener=listener)
        pending.irs = irs
        pending.peer_mac = frame.eth.src
        pending.remote_win = tcp.window
        self.arp.table.setdefault(frame.ip.src, frame.eth.src)
        self.cookies_validated += 1
        self._establish(pending)
        return True

    def _handshake_tx(self, peer_mac, four_tuple, flags, seq, ack=0):
        """SYN, SYN-ACK and the stateless cookie SYN-ACK: one segment."""
        frame = self._tcp_frame(
            peer_mac, four_tuple, seq=seq, ack=ack, flags=flags, window=0xFFFF, options=self._syn_options()
        )
        self._control_tx(frame)

    def _send_handshake(self, pending):
        """(Re)send a pending connection's segment: the SYN of an active
        open, the SYN-ACK of a passive one."""
        pending.last_sent_at = self.sim.now
        pending.attempts += 1
        if pending.state == SYN_SENT:
            self._handshake_tx(pending.peer_mac, pending.four_tuple, FLAG_SYN, pending.iss)
        else:
            self._handshake_tx(pending.peer_mac, pending.four_tuple, FLAG_SYN | FLAG_ACK, pending.iss, pending.irs)

    # -- establishment -----------------------------------------------------

    def _establish(self, pending):
        self.pending.pop(pending.four_tuple, None)
        self._note_pending_gone(pending)
        rx_buffer, tx_buffer = self._alloc_buffers()
        index = self.nic.allocate_connection_index()
        ctx = pending.ctx if pending.ctx is not None else pending.listener.ctx
        # The NIC's opaque handle doubles as a generation token: unique
        # per establishment, so libTOE can discard notifications still
        # queued for an earlier connection that used the same index.
        self._conn_token += 1
        token = self._conn_token
        snd_iss = (pending.iss + 1) & 0xFFFFFFFF
        # One set of values, two rows: the NIC's and its host shadow's.
        offload = dict(
            index=index,
            four_tuple=pending.four_tuple,
            peer_mac=pending.peer_mac,
            local_mac=self.local_mac,
            iss=snd_iss,
            irs=pending.irs,
            context_id=ctx.context_id,
            opaque=token,
            rx_buffer=rx_buffer.as_triple(),
            tx_buffer=tx_buffer.as_triple(),
        )
        self.nic.offload_connection(remote_win=pending.remote_win << WINDOW_SCALE, **offload)
        flow = self.cc.new_flow()
        # A new flow's first congestion-control poll creates its
        # algorithm state; its timers are at rest until data moves.
        self._arm_cc(self.directory.add(index, self.nic.connection(index), flow, snd_iss))
        self._program_rate(index, flow)
        if self.recovery is not None:
            self.recovery.track(**offload)
        info = EstablishedInfo(index, pending.four_tuple, rx_buffer, tx_buffer, token=token)
        if pending.waiter is not None:
            pending.waiter.succeed(info)
        elif pending.listener is not None:
            pending.listener.deliver(info)

    def _program_rate(self, index, flow):
        if not self.cc_enabled:
            self.nic.set_flow_rate(index, 0)
            return
        self.nic.set_flow_rate(index, self.cc.scheduler_rate(flow))

    # -- timers ------------------------------------------------------------

    def _rto_ns(self, entry):
        """Current retransmission timeout: RTT-scaled (the initial RTO
        before any sample), backed off, capped."""
        rtt_us = entry.record.post.rtt_est
        base_rto = max(self.config.rto_ns, 4_000 * rtt_us) if rtt_us else INITIAL_RTO_NS
        return min(base_rto * entry.rto_multiplier, self.config.rto_max_ns)

    # -- the poll grid (DESIGN §12) -------------------------------------------

    def proto_changed(self, index, proto):
        """Data-path hook, the instant protocol logic ran on ``proto``:
        unacknowledged or window-blocked data is what a timer visit acts on."""
        if proto.tx_sent > 0 or (proto.remote_win == 0 and proto.tx_avail > 0):
            entry = self.directory.get(index)
            if entry is not None:  # adopted connections have no entry
                self._arm_timer(entry)

    def cc_feedback(self, index):
        """Data-path hook: the post stage recorded ACK/ECN/loss/RTT feedback."""
        entry = self.directory.get(index)
        if entry is not None:
            self._arm_cc(entry)

    def arm_all(self):
        """Recovery, entering degraded mode: the grid ticks through the
        outage and the first tick after re-offload visits everyone."""
        for entry in self.directory:
            self._arm_timer(entry)
            self._arm_cc(entry)

    def _arm_timer(self, entry):
        self.directory.timer_armed.add(entry)
        self._poll.arm()

    def _arm_cc(self, entry):
        if self.cc_enabled:
            self.directory.cc_armed.add(entry)
            self._poll.arm()

    def _poll_armed(self):
        """One grid tick: timers, then congestion control, over the armed
        entries in directory order. True while anything stays armed."""
        if not (self.recovery is not None and self.recovery.degraded):
            # (Degraded: nothing to retransmit into, and outage time must
            # not count toward abort thresholds. The armed sets survive.)
            self._poll_timers(self.sim.now)
            self._poll_cc()
        directory = self.directory
        return bool(self.pending or directory.timer_armed or directory.cc_armed)

    def withdraw(self, index):
        """The one teardown of an offloaded connection: its directory
        entry (if any), its data-path row and its recovery shadow."""
        self.directory.remove(index)
        self.nic.remove_connection(index)
        if self.recovery is not None:
            self.recovery.forget(index)

    def _poll_timers(self, now):
        config = self.config
        armed = self.directory.timer_armed
        # Handshake retransmissions (and the half-open reaper).
        for pending in list(self.pending.values()):
            if pending.embryonic and now - pending.created_at > config.half_open_timeout_ns:
                # Half-open reaper: a peer that SYNs and goes silent only
                # holds an embryonic slot for the timeout, not for
                # max_syn_retries worth of SYN-ACK RTOs.
                self.pending.pop(pending.four_tuple, None)
                self._note_pending_gone(pending)
                self.embryonic_reaped += 1
                continue
            if now - pending.last_sent_at < SYN_RTO_NS:
                continue
            if pending.attempts >= config.max_syn_retries:
                self.pending.pop(pending.four_tuple, None)
                self._note_pending_gone(pending)
                if pending.waiter is not None and not pending.waiter.triggered:
                    remote_ip, remote_port = pending.four_tuple[1], pending.four_tuple[3]
                    pending.waiter.fail(
                        HandshakeTimeoutError(
                            "handshake to {}:{} timed out after {} attempts".format(
                                remote_ip, remote_port, pending.attempts
                            )
                        )
                    )
                continue
            self.syn_retransmits += 1
            self._send_handshake(pending)
        # Data-path retransmission timeouts and zero-window probes.
        for entry in self.directory.in_order(armed):
            proto = entry.record.proto
            if proto.remote_win == 0 and (proto.tx_sent > 0 or proto.tx_avail > 0):
                # Persist state: the peer (or its slow-path shim) closed
                # the window. Classic TCP probes forever — zero-window
                # probing never aborts a connection.
                entry.retry_attempts = 0
                if entry.stalled_since is None:
                    entry.stalled_since = now
                elif now - entry.stalled_since > self._rto_ns(entry):
                    entry.stalled_since = now
                    entry.rto_multiplier = min(entry.rto_multiplier * 2, 64)
                    self.probes_posted += 1
                    self.nic.post_hc(CONTROL_CONTEXT, HostControlDescriptor(HC_PROBE, entry.index))
            elif proto.tx_sent > 0:
                snd_una = (proto.seq - proto.tx_sent) & 0xFFFFFFFF
                if entry.last_snd_una != snd_una:
                    # Forward progress: restart the timer, reset the backoff.
                    entry.last_snd_una = snd_una
                    entry.stalled_since = now
                    entry.reset_backoff()
                elif entry.stalled_since is not None:
                    if not self.cc_enabled:  # no CC pass folds its RTT samples
                        self.nic.datapath.drain_rtt(entry.record)
                    if now - entry.stalled_since > self._rto_ns(entry):
                        if entry.retry_attempts >= config.max_data_retries:
                            self._abort_connection(entry)
                            continue
                        entry.stalled_since = now
                        entry.retry_attempts += 1
                        entry.rto_multiplier = min(entry.rto_multiplier * 2, 64)
                        self.retransmits_posted += 1
                        self.nic.post_hc(CONTROL_CONTEXT, HostControlDescriptor(HC_RETRANSMIT, entry.index))
            else:
                entry.stalled_since = None
                entry.reset_backoff()
                if not entry.closing:
                    # At rest: until the data path or close() arms it
                    # again, every further visit would be the identity.
                    armed.discard(entry)
            # Teardown: remove once closed on both sides (or linger out).
            if entry.closing:
                # fin_seq/fin_pending are clear once our FIN is ACKed but
                # also while a posted HC_FIN is still unconsumed. The FIN's
                # sequence unit tells the two apart: seq runs one past
                # snd_iss + tx_pos only after the FIN was sent (go-back-N
                # rewinds it), and tx_sent == 0 then means it was ACKed.
                done = (
                    proto.fin_seq is None
                    and proto.tx_sent == 0
                    and proto.rx_fin_seq is not None
                    and (proto.seq - proto.tx_pos - entry.snd_iss) & 0xFFFFFFFF == 1
                )
                lingered = now - entry.close_requested_at > LINGER_NS
                if done or lingered:
                    self.withdraw(entry.index)

    # -- congestion control ---------------------------------------------------

    def _poll_cc(self):
        armed = self.directory.cc_armed
        for entry in self.directory.in_order(armed):
            raw = self.nic.read_cc_stats(entry.index)
            if raw is None:
                continue
            new_rate = self.cc.update(entry.cc_flow, CcStats(*raw))
            if new_rate != entry.cc_flow.rate_bps:
                entry.cc_flow.rate_bps = new_rate
                self._program_rate(entry.index, entry.cc_flow)
        if self.cc.idle_is_identity:
            # Polled once, and nothing more to say until the post stage
            # records feedback again (``cc_feedback``).
            armed.clear()
