"""A complete software TCP engine for the baseline stacks.

Simulation-free core: all methods take ``now`` (ns) and return/emit
frames through a transmit callback, so the engine is unit-testable and
the per-stack *personality* decides which core pays the cycles.

Feature matrix (selected per stack by :class:`TcpEngineConfig`):

* recovery: ``"sack"`` (selective retransmit, Linux), ``"gbn"``
  (go-back-N on 3 dup-ACKs, TAS), ``"rto_only"`` (Chelsio TOE).
* reassembly: ``"full"`` (arbitrary OOO queue, Linux), ``"interval"``
  (one interval, like FlexTOE), ``"drop"`` (discard OOO, TAS).
* DCTCP ECN reaction and NewReno-style cwnd control.
* delayed ACKs, window-scale 7, RFC 7323 timestamps, zero-window probes.
"""

from repro.proto.packet import make_tcp_frame
from repro.proto.tcp import (
    FLAG_ACK,
    FLAG_ECE,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TcpOptions,
    seq_add,
    seq_diff,
)

WINDOW_SCALE = 7
SEQ_MASK = 0xFFFFFFFF
#: RTO ceiling after backoff, the send buffer's size, and DCTCP's alpha gain.
MAX_RTO_NS = 64_000_000
TX_BUFFER = 256 * 1024
DCTCP_G = 1.0 / 16.0

# Connection states.
SYN_SENT = "syn-sent"
SYN_RCVD = "syn-rcvd"
ESTABLISHED = "established"
FIN_WAIT = "fin-wait"
CLOSE_WAIT = "close-wait"
LAST_ACK = "last-ack"
CLOSED = "closed"


class TcpEngineConfig:
    def __init__(
        self,
        mss=1448,
        recovery="sack",
        reassembly="full",
        delayed_ack_segments=1,
        init_cwnd_segments=10,
        rto_ns=1_000_000,
        min_rto_ns=200_000,
        rx_buffer=256 * 1024,
    ):
        self.mss = mss
        self.recovery = recovery
        self.reassembly = reassembly
        self.delayed_ack_segments = delayed_ack_segments
        self.init_cwnd_segments = init_cwnd_segments
        self.rto_ns = rto_ns
        self.min_rto_ns = min_rto_ns
        self.rx_buffer = rx_buffer


class TcpConn:
    """One connection's complete state. Stream positions are unbounded
    ints; wire sequence = (iss/irs + 1 + pos) mod 2^32."""

    def __init__(self, four_tuple, local_mac, peer_mac, iss, config):
        self.four_tuple = four_tuple  # (lip, rip, lport, rport)
        self.local_mac = local_mac
        self.peer_mac = peer_mac
        self.config = config
        self.state = CLOSED
        self.iss = iss
        self.irs = None
        # Send side.
        self.tx_buf = bytearray()
        self.tx_base_pos = 0  # stream pos of tx_buf[0] == SND.UNA
        self.snd_nxt_pos = 0
        self.snd_max_pos = 0  # highest position ever sent (for ACK validation)
        self.fin_pending = False
        self.fin_sent_pos = None
        self.fin_acked = False
        self.remote_win = 0xFFFF << WINDOW_SCALE
        self.cwnd = config.init_cwnd_segments * config.mss
        self.ssthresh = 1 << 30
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_end_pos = 0
        self.sacked = []  # list of (start_pos, end_pos), disjoint sorted
        self.retransmit_pos = None
        # DCTCP.
        self.dctcp_alpha = 0.0
        self.win_acked = 0
        self.win_marked = 0
        self.win_end_pos = 0
        # Receive side.
        self.rcv_nxt_pos = 0
        self.rx_ready = bytearray()
        self.rx_ooo = []  # list of (start_pos, bytes), disjoint sorted
        self.rx_fin_pos = None
        self.fin_delivered = False
        self.peer_ts = 0
        # ACK policy.
        self.segs_since_ack = 0
        # Timers (deadlines in ns; None = disarmed).
        self.rto_deadline = None
        self.rto_backoff = 0
        self.persist_deadline = None
        self.delack_deadline = None
        # Stats.
        self.retransmitted_bytes = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.bytes_acked_total = 0

    # -- sequence mapping ------------------------------------------------

    def snd_seq(self, pos):
        return seq_add(self.iss, 1 + pos)

    def rcv_seq(self, pos):
        return seq_add(self.irs, 1 + pos)

    # -- window bookkeeping ------------------------------------------------

    @property
    def snd_una_pos(self):
        return self.tx_base_pos

    @property
    def flight(self):
        return self.snd_nxt_pos - self.tx_base_pos

    @property
    def tx_pending(self):
        return self.tx_base_pos + len(self.tx_buf) - self.snd_nxt_pos

    @property
    def tx_free(self):
        return TX_BUFFER - len(self.tx_buf)

    @property
    def rx_space(self):
        """Advertised receive space: unread in-order bytes only.

        Out-of-order data is not counted against the advertised window
        (it would perturb the window field and defeat the peer's
        duplicate-ACK detection); the reassembly queue is bounded
        separately by the same buffer capacity."""
        return max(0, self.config.rx_buffer - len(self.rx_ready))

    def advertised_window(self):
        return min(0xFFFF, self.rx_space >> WINDOW_SCALE)

    @property
    def readable(self):
        return len(self.rx_ready) > 0 or (
            self.rx_fin_pos is not None and self.rcv_nxt_pos >= self.rx_fin_pos and not self.fin_delivered
        )


class HostTcpEngine:
    """The engine: owns all connections of one stack instance.

    The hosting stack provides ``callbacks`` with:
    ``transmit(frame)``, ``on_connected(conn)``, ``on_accept(conn)``,
    ``on_data(conn)``, ``on_tx_space(conn)``, ``on_eof(conn)``,
    ``on_reset(conn)``, ``syn_to_unknown_port(frame) -> bool``.
    """

    def __init__(self, local_mac, local_ip, config, callbacks):
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.config = config
        self.callbacks = callbacks
        self.conns = {}  # four_tuple -> TcpConn
        self._iss = 50_000

    # -- helpers -----------------------------------------------------------

    def _next_iss(self):
        self._iss += 64_000
        return self._iss & SEQ_MASK

    def _options(self, conn, now, syn=False):
        options = TcpOptions()
        if syn:
            options.mss = self.config.mss
            options.wscale = WINDOW_SCALE
            options.sack_permitted = self.config.recovery == "sack"
        options.ts_val = (now // 1000) & SEQ_MASK
        options.ts_ecr = conn.peer_ts
        if not syn and self.config.recovery == "sack" and conn.rx_ooo:
            for start, data in conn.rx_ooo[:3]:
                options.sack_blocks.append(
                    (conn.rcv_seq(start), conn.rcv_seq(start + len(data)))
                )
        return options

    def _frame(self, conn, seq, flags, payload=b"", now=0, ece=False, syn=False):
        lip, rip, lport, rport = conn.four_tuple
        ack = conn.rcv_seq(conn.rcv_nxt_pos + (1 if self._rx_fin_consumed(conn) else 0)) if conn.irs is not None else 0
        if flags & FLAG_ACK == 0 and not syn:
            flags |= FLAG_ACK
        frame = make_tcp_frame(
            conn.local_mac,
            conn.peer_mac,
            lip,
            rip,
            lport,
            rport,
            seq=seq,
            ack=ack if (flags & FLAG_ACK) else 0,
            flags=flags | (FLAG_ECE if ece else 0),
            window=conn.advertised_window(),
            payload=payload,
            options=self._options(conn, now, syn=syn),
            ecn=0b10,
            born_at=now,
        )
        return frame

    def _rx_fin_consumed(self, conn):
        return conn.rx_fin_pos is not None and conn.rcv_nxt_pos >= conn.rx_fin_pos

    # -- connection setup -----------------------------------------------------

    def open(self, four_tuple, peer_mac, now):
        """Active open: create the connection and send the SYN."""
        conn = TcpConn(four_tuple, self.local_mac, peer_mac, self._next_iss(), self.config)
        conn.state = SYN_SENT
        self.conns[four_tuple] = conn
        self._send_syn(conn, now)
        return conn

    def _send_syn(self, conn, now, syn_ack=False):
        flags = FLAG_SYN | (FLAG_ACK if syn_ack else 0)
        lip, rip, lport, rport = conn.four_tuple
        frame = make_tcp_frame(
            conn.local_mac,
            conn.peer_mac,
            lip,
            rip,
            lport,
            rport,
            seq=conn.iss,
            ack=conn.rcv_seq(0) if syn_ack else 0,
            flags=flags,
            window=0xFFFF,
            options=self._options(conn, now, syn=True),
            born_at=now,
        )
        conn.rto_deadline = now + self.config.rto_ns
        self.callbacks.transmit(frame)

    # -- segment input -----------------------------------------------------------

    def on_segment(self, frame, now):
        """Process one received segment; returns the connection or None."""
        tcp = frame.tcp
        four = (frame.ip.dst, frame.ip.src, tcp.dport, tcp.sport)
        conn = self.conns.get(four)
        if conn is None:
            if tcp.flags & FLAG_SYN and not (tcp.flags & FLAG_ACK):
                return self._on_syn(frame, four, now)
            if not tcp.flags & FLAG_RST:
                self._send_rst_for(frame, now)
            return None
        if tcp.flags & FLAG_RST:
            self._teardown(conn, reset=True)
            return conn
        if conn.state == SYN_SENT:
            self._on_syn_ack(conn, frame, now)
            return conn
        if conn.state == SYN_RCVD:
            if tcp.flags & FLAG_SYN:
                self._send_syn(conn, now, syn_ack=True)  # SYN-ACK lost
                return conn
            conn.state = ESTABLISHED
            conn.rto_deadline = None
            self.callbacks.on_accept(conn)
            if conn.state == CLOSED:
                return conn  # refused at accept: nothing more of it is processed
            # Fall through: the ACK may carry data.
        self._on_established_segment(conn, frame, now)
        return conn

    def _on_syn(self, frame, four, now):
        if not self.callbacks.syn_to_unknown_port(frame):
            self._send_rst_for(frame, now)
            return None
        conn = TcpConn(four, self.local_mac, frame.eth.src, self._next_iss(), self.config)
        conn.state = SYN_RCVD
        conn.irs = frame.tcp.seq
        conn.remote_win = frame.tcp.window << WINDOW_SCALE
        if frame.tcp.options.ts_val is not None:
            conn.peer_ts = frame.tcp.options.ts_val
        self.conns[four] = conn
        self._send_syn(conn, now, syn_ack=True)
        return conn

    def _on_syn_ack(self, conn, frame, now):
        if not frame.tcp.flags & FLAG_SYN:
            return
        conn.irs = frame.tcp.seq
        conn.remote_win = frame.tcp.window << WINDOW_SCALE
        if frame.tcp.options.ts_val is not None:
            conn.peer_ts = frame.tcp.options.ts_val
        conn.state = ESTABLISHED
        conn.rto_deadline = None
        self.callbacks.transmit(self._frame(conn, conn.snd_seq(0), FLAG_ACK, now=now))
        self.callbacks.on_connected(conn)

    def _send_rst_for(self, frame, now):
        rst = make_tcp_frame(
            self.local_mac,
            frame.eth.src,
            frame.ip.dst,
            frame.ip.src,
            frame.tcp.dport,
            frame.tcp.sport,
            seq=frame.tcp.ack,
            ack=seq_add(frame.tcp.seq, max(1, len(frame.payload))),
            flags=FLAG_RST | FLAG_ACK,
            born_at=now,
        )
        self.callbacks.transmit(rst)

    # -- established-state processing ----------------------------------------

    def _on_established_segment(self, conn, frame, now):
        tcp = frame.tcp
        if tcp.flags & FLAG_SYN:
            # A retransmitted SYN-ACK: our handshake ACK was lost and
            # the peer is still in SYN-RCVD — re-acknowledge (RFC 793).
            self._send_ack(conn, now)
            return
        if tcp.options.ts_val is not None:
            conn.peer_ts = tcp.options.ts_val
        ack_side_progress = self._process_ack(conn, tcp, len(frame.payload), now)
        data_progress, need_ack, dup = self._process_data(conn, frame, now)
        if data_progress:
            self.callbacks.on_data(conn)
        if ack_side_progress:
            self.callbacks.on_tx_space(conn)
            self._try_transmit(conn, now)
        if self._rx_fin_consumed(conn) and not conn.fin_delivered and conn.rx_fin_pos == conn.rcv_nxt_pos and not conn.rx_ready:
            # Bare-FIN edge: EOF with no pending data still wakes the app.
            self.callbacks.on_eof(conn)
        if need_ack:
            self._maybe_ack(conn, now, force_dup=dup, ce=frame.ip.ce_marked)
        if conn.state == LAST_ACK and conn.fin_acked:
            self._teardown(conn)

    def _process_ack(self, conn, tcp, payload_len, now):
        if not tcp.flags & FLAG_ACK:
            return False
        new_remote_win = tcp.window << WINDOW_SCALE
        ack_pos = conn.snd_una_pos + seq_diff(tcp.ack, conn.snd_seq(conn.snd_una_pos))
        fin_units = 1 if conn.fin_sent_pos is not None else 0
        # ACKs may cover data sent before a go-back-N reset rewound
        # SND.NXT, so validate against the highest position ever sent.
        max_pos = max(conn.snd_nxt_pos, conn.snd_max_pos) + fin_units
        progress = False
        if conn.snd_una_pos < ack_pos <= max_pos:
            acked = ack_pos - conn.snd_una_pos
            if conn.fin_sent_pos is not None and ack_pos > conn.fin_sent_pos:
                conn.fin_acked = True
                acked -= 1
                ack_pos -= 1
            del conn.tx_buf[:acked]
            conn.tx_base_pos = ack_pos
            if conn.snd_nxt_pos < ack_pos:
                conn.snd_nxt_pos = ack_pos
            conn.bytes_acked_total += acked
            conn.dupacks = 0
            conn.rto_backoff = 0
            conn.rto_deadline = (now + self._rto(conn)) if (conn.flight or fin_units and not conn.fin_acked) else None
            self._drop_sacked_below(conn, ack_pos)
            # Congestion window growth + DCTCP window accounting.
            self._cc_on_ack(conn, acked, bool(tcp.flags & FLAG_ECE), now)
            if conn.in_recovery:
                if ack_pos >= conn.recovery_end_pos:
                    conn.in_recovery = False
                elif self.config.recovery == "sack":
                    self._retransmit_hole(conn, now)
            progress = True
        elif ack_pos == conn.snd_una_pos and payload_len == 0 and conn.flight > 0:
            if new_remote_win == conn.remote_win and not (tcp.flags & (FLAG_SYN | FLAG_FIN)):
                conn.dupacks += 1
                if self.config.recovery == "sack" and tcp.options.sack_blocks:
                    self._absorb_sack(conn, tcp.options.sack_blocks)
                if conn.dupacks == 3 and self.config.recovery != "rto_only":
                    self._fast_retransmit(conn, now)
        window_grew = new_remote_win > conn.remote_win
        conn.remote_win = new_remote_win
        if conn.remote_win > 0:
            conn.persist_deadline = None
        # A pure window update must restart a stalled sender.
        return progress or (window_grew and conn.tx_pending > 0)

    def _process_data(self, conn, frame, now):
        tcp = frame.tcp
        payload = frame.payload
        fin = bool(tcp.flags & FLAG_FIN)
        if not payload and not fin:
            return False, False, False
        seg_pos = conn.rcv_nxt_pos + seq_diff(tcp.seq, conn.rcv_seq(conn.rcv_nxt_pos))
        progress = False
        dup = False
        if payload:
            start = seg_pos
            end = seg_pos + len(payload)
            if end <= conn.rcv_nxt_pos:
                dup = True  # complete duplicate
            else:
                if start < conn.rcv_nxt_pos:
                    payload = payload[conn.rcv_nxt_pos - start :]
                    start = conn.rcv_nxt_pos
                # Trim to receive space.
                space = conn.rx_space - (start - conn.rcv_nxt_pos)
                if len(payload) > space:
                    payload = payload[: max(0, space)]
                    fin = False
                if not payload:
                    dup = True
                elif start == conn.rcv_nxt_pos:
                    conn.rx_ready += payload
                    conn.rcv_nxt_pos += len(payload)
                    self._fold_ooo(conn)
                    progress = True
                else:
                    dup = True  # out of order: dup-ACK the expected seq
                    self._stash_ooo(conn, start, payload)
        if fin:
            fin_pos = seg_pos + len(frame.payload)
            if fin_pos == conn.rcv_nxt_pos and conn.rx_fin_pos is None:
                conn.rx_fin_pos = fin_pos
                if conn.state == ESTABLISHED:
                    conn.state = CLOSE_WAIT
                self.callbacks.on_eof(conn)
                progress = True
            elif fin_pos > conn.rcv_nxt_pos:
                dup = True
        return progress, True, dup

    def _stash_ooo(self, conn, start, payload):
        policy = self.config.reassembly
        if policy == "drop":
            return
        ooo_bytes = sum(len(b) for _s, b in conn.rx_ooo)
        if ooo_bytes + len(payload) > self.config.rx_buffer:
            return  # reassembly queue bounded by the buffer capacity
        if policy == "interval" and conn.rx_ooo:
            lo, data = conn.rx_ooo[0]
            hi = lo + len(data)
            if start > hi or start + len(payload) < lo:
                return  # merge failure: single-interval policy drops
        merged = conn.rx_ooo + [(start, bytes(payload))]
        merged.sort(key=lambda item: item[0])
        out = []
        for seg_start, seg_data in merged:
            if out:
                last_start, last_data = out[-1]
                last_end = last_start + len(last_data)
                if seg_start <= last_end:
                    tail = seg_start + len(seg_data) - last_end
                    if tail > 0:
                        out[-1] = (last_start, last_data + seg_data[-tail:])
                    continue
            out.append((seg_start, bytes(seg_data)))
        conn.rx_ooo = out

    def _fold_ooo(self, conn):
        while conn.rx_ooo:
            start, data = conn.rx_ooo[0]
            if start > conn.rcv_nxt_pos:
                return
            usable = data[conn.rcv_nxt_pos - start :]
            conn.rx_ready += usable
            conn.rcv_nxt_pos += len(usable)
            conn.rx_ooo.pop(0)

    # -- congestion control -----------------------------------------------------

    def _cc_on_ack(self, conn, acked, ece, now):
        config = self.config
        conn.win_acked += acked
        if ece:
            conn.win_marked += acked
        if conn.snd_una_pos >= conn.win_end_pos:
            # A congestion window's worth of data acked: update alpha.
            if conn.win_acked > 0:
                fraction = conn.win_marked / conn.win_acked
                conn.dctcp_alpha = (1 - DCTCP_G) * conn.dctcp_alpha + DCTCP_G * fraction
                if fraction > 0:
                    conn.cwnd = max(config.mss, int(conn.cwnd * (1 - conn.dctcp_alpha / 2)))
            conn.win_acked = 0
            conn.win_marked = 0
            conn.win_end_pos = conn.snd_nxt_pos
        if conn.in_recovery:
            return
        if conn.cwnd < conn.ssthresh:
            conn.cwnd += acked  # slow start
        else:
            conn.cwnd += max(1, config.mss * acked // max(1, conn.cwnd))

    # -- loss recovery --------------------------------------------------------

    def _absorb_sack(self, conn, blocks):
        for start_seq, end_seq in blocks:
            start = conn.snd_una_pos + seq_diff(start_seq, conn.snd_seq(conn.snd_una_pos))
            end = conn.snd_una_pos + seq_diff(end_seq, conn.snd_seq(conn.snd_una_pos))
            if end <= start:
                continue
            conn.sacked.append((start, end))
        conn.sacked.sort()
        merged = []
        for start, end in conn.sacked:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(end, merged[-1][1]))
            else:
                merged.append((start, end))
        conn.sacked = merged

    def _drop_sacked_below(self, conn, pos):
        conn.sacked = [(s, e) for s, e in conn.sacked if e > pos]

    def _fast_retransmit(self, conn, now):
        conn.fast_retransmits += 1
        conn.ssthresh = max(2 * self.config.mss, conn.flight // 2)
        conn.cwnd = conn.ssthresh
        conn.in_recovery = True
        conn.recovery_end_pos = conn.snd_nxt_pos
        if self.config.recovery == "gbn":
            conn.snd_nxt_pos = conn.snd_una_pos  # resend everything
            self._try_transmit(conn, now)
        else:
            self._retransmit_hole(conn, now)
        conn.rto_deadline = now + self._rto(conn)

    def _retransmit_hole(self, conn, now):
        """SACK: resend the first unsacked chunk at SND.UNA."""
        hole_start = conn.snd_una_pos
        hole_end = min(conn.snd_nxt_pos, hole_start + self.config.mss)
        for s, e in conn.sacked:
            if s <= hole_start < e:
                return  # una itself is sacked; wait for cumulative ack
            if hole_start < s < hole_end:
                hole_end = s
                break
        if hole_end <= hole_start:
            return
        self._emit(conn, hole_start, hole_end - hole_start, now, retransmit=True)

    def _rto(self, conn):
        rto = self.config.rto_ns << min(6, conn.rto_backoff)
        return max(self.config.min_rto_ns, min(MAX_RTO_NS, rto))

    # -- transmission ------------------------------------------------------------

    def app_send(self, conn, data, now):
        """Append app data; returns bytes accepted."""
        accepted = min(len(data), conn.tx_free)
        if accepted:
            conn.tx_buf += data[:accepted]
            self._try_transmit(conn, now)
        return accepted

    def app_recv(self, conn, max_bytes, now):
        """Pop in-order data; returns bytes (possibly empty)."""
        take = min(max_bytes, len(conn.rx_ready))
        data = bytes(conn.rx_ready[:take])
        del conn.rx_ready[:take]
        if take and conn.irs is not None and conn.state in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT):
            # Window update if we were nearly closed.
            if conn.rx_space - take < 2 * self.config.mss:
                self._send_ack(conn, now)
        if not data and self._rx_fin_consumed(conn):
            conn.fin_delivered = True
        return data

    def app_close(self, conn, now):
        conn.fin_pending = True
        if conn.state == ESTABLISHED:
            conn.state = FIN_WAIT
        elif conn.state == CLOSE_WAIT:
            conn.state = LAST_ACK
        self._try_transmit(conn, now)

    def _usable_window(self, conn):
        window = min(conn.cwnd, conn.remote_win)
        return max(0, conn.snd_una_pos + window - conn.snd_nxt_pos)

    def _try_transmit(self, conn, now):
        config = self.config
        while True:
            usable = self._usable_window(conn)
            pending = conn.tx_pending
            if pending <= 0:
                break
            length = min(config.mss, usable, pending)
            if length <= 0:
                if conn.remote_win == 0 and conn.persist_deadline is None:
                    conn.persist_deadline = now + self._rto(conn)
                break
            self._emit(conn, conn.snd_nxt_pos, length, now)
            conn.snd_nxt_pos += length
            if conn.rto_deadline is None:
                conn.rto_deadline = now + self._rto(conn)
        if (
            conn.fin_pending
            and conn.fin_sent_pos is None
            and conn.tx_pending == 0
        ):
            self._emit_fin(conn, now)

    def _emit(self, conn, pos, length, now, retransmit=False):
        offset = pos - conn.tx_base_pos
        if pos + length > conn.snd_max_pos:
            conn.snd_max_pos = pos + length
        payload = bytes(conn.tx_buf[offset : offset + length])
        fin = False
        if (
            conn.fin_pending
            and pos + length == conn.tx_base_pos + len(conn.tx_buf)
            and (conn.fin_sent_pos is None or retransmit)
        ):
            fin = True
            conn.fin_sent_pos = pos + length
        flags = FLAG_ACK | (FLAG_PSH if payload else 0) | (FLAG_FIN if fin else 0)
        frame = self._frame(conn, conn.snd_seq(pos), flags, payload=payload, now=now)
        if retransmit:
            conn.retransmitted_bytes += length
        conn.segs_since_ack = 0
        conn.delack_deadline = None
        self.callbacks.transmit(frame)

    def _emit_fin(self, conn, now):
        conn.fin_sent_pos = conn.snd_nxt_pos
        frame = self._frame(conn, conn.snd_seq(conn.snd_nxt_pos), FLAG_ACK | FLAG_FIN, now=now)
        conn.rto_deadline = now + self._rto(conn)
        self.callbacks.transmit(frame)

    # -- acknowledgment policy ------------------------------------------------

    def _maybe_ack(self, conn, now, force_dup=False, ce=False):
        conn.segs_since_ack += 1
        if force_dup or conn.segs_since_ack >= self.config.delayed_ack_segments:
            self._send_ack(conn, now, ce=ce)
        elif conn.delack_deadline is None:
            conn.delack_deadline = now + 500_000  # 500 us delayed-ACK timer
            if ce:
                self._send_ack(conn, now, ce=True)

    def _send_ack(self, conn, now, ce=False):
        conn.segs_since_ack = 0
        conn.delack_deadline = None
        frame = self._frame(conn, conn.snd_seq(conn.snd_nxt_pos), FLAG_ACK, now=now, ece=ce)
        self.callbacks.transmit(frame)

    # -- timers -----------------------------------------------------------------

    def tick(self, now):
        """Drive all per-connection timers; call every ~100 us."""
        for conn in list(self.conns.values()):
            if conn.state == CLOSED:
                continue
            if conn.state in (SYN_SENT, SYN_RCVD):
                if conn.rto_deadline is not None and now >= conn.rto_deadline:
                    conn.rto_deadline = now + self._rto(conn)
                    conn.rto_backoff += 1
                    if conn.rto_backoff > 7:
                        self._teardown(conn, reset=True)
                        continue
                    self._send_syn(conn, now, syn_ack=conn.state == SYN_RCVD)
                continue
            if conn.delack_deadline is not None and now >= conn.delack_deadline:
                self._send_ack(conn, now)
            if conn.persist_deadline is not None and now >= conn.persist_deadline:
                conn.persist_deadline = now + self._rto(conn)
                self._zero_window_probe(conn, now)
            if conn.rto_deadline is not None and now >= conn.rto_deadline:
                if conn.flight > 0 or (conn.fin_sent_pos is not None and not conn.fin_acked):
                    conn.timeouts += 1
                    conn.rto_backoff += 1
                    conn.ssthresh = max(2 * self.config.mss, conn.flight // 2)
                    conn.cwnd = self.config.mss
                    conn.in_recovery = False
                    conn.sacked = []
                    if conn.fin_sent_pos is not None and not conn.fin_acked:
                        conn.fin_sent_pos = None  # re-arm the FIN
                    conn.snd_nxt_pos = conn.snd_una_pos  # go-back-N resend
                    conn.rto_deadline = now + self._rto(conn)
                    self._try_transmit(conn, now)
                else:
                    conn.rto_deadline = None

    def _zero_window_probe(self, conn, now):
        if conn.tx_pending <= 0:
            conn.persist_deadline = None
            return
        offset = conn.snd_nxt_pos - conn.tx_base_pos
        payload = bytes(conn.tx_buf[offset : offset + 1])
        frame = self._frame(conn, conn.snd_seq(conn.snd_nxt_pos), FLAG_ACK | FLAG_PSH, payload=payload, now=now)
        self.callbacks.transmit(frame)

    # -- teardown ----------------------------------------------------------------

    def _teardown(self, conn, reset=False):
        conn.state = CLOSED
        self.conns.pop(conn.four_tuple, None)
        if reset:
            self.callbacks.on_reset(conn)

    def abort(self, conn, now):
        """Reset ``conn``: one RST to the peer, and its state goes."""
        self.callbacks.transmit(self._frame(conn, conn.snd_seq(conn.snd_nxt_pos), FLAG_RST, now=now))
        self._teardown(conn)

    def close_silently(self, conn):
        """Drop state without emitting anything (test/util hook)."""
        self._teardown(conn)
