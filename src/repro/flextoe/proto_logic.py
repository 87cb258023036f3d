"""Pure protocol-stage logic (paper §3.1.3): the only atomic per-connection
code in the data-path.

Functions here mutate a :class:`~repro.flextoe.state.ProtocolState` and
return the stage's verdict — the :class:`ProtoSnapshot` the post stage
reads (``process_rx``, ``process_hc``) or the emitted segment
(``process_tx``). They contain no simulation constructs, so correctness
is testable directly (including hypothesis property tests over
loss/reorder/duplication).

Receive-window reassembly follows the paper exactly: one out-of-order
interval, merged in place in the host receive buffer; segments that
cannot merge are dropped and re-ACKed with the expected sequence number.
Loss recovery is go-back-N, with fast retransmit on three duplicate ACKs.
"""

from repro.flextoe.descriptors import (
    HC_FIN,
    HC_PROBE,
    HC_RETRANSMIT,
    HC_RX_UPDATE,
    HC_TX_UPDATE,
    ProtoSnapshot,
)
from repro.proto.tcp import FLAG_ECE, FLAG_FIN, seq_add, seq_diff

#: Fixed window-scale shift both FlexTOE endpoints negotiate (control
#: plane sets it in the SYN; the data-path only shifts by it).
WINDOW_SCALE = 7

#: Duplicate-ACK threshold for fast retransmit.
DUPACK_THRESHOLD = 3


class TxResult:
    """A transmit decision: which bytes of the host TX buffer to send."""

    __slots__ = ("seq", "stream_pos", "length", "fin", "ack", "window")

    def __init__(self, seq, stream_pos, length, fin, ack, window):
        self.seq = seq
        self.stream_pos = stream_pos
        self.length = length
        self.fin = fin
        self.ack = ack
        self.window = window


def advertised_window(state):
    """The on-wire (scaled-down) receive window field."""
    return min(0xFFFF, state.rx_avail >> WINDOW_SCALE)


def _ack_now(state, snapshot):
    """The verdict carries an acknowledgment of the state as it stands."""
    snapshot.send_ack = True
    snapshot.ack_seq = state.seq
    snapshot.ack_ack = state.ack
    snapshot.window = advertised_window(state)


def _process_ack_side(state, summary, snapshot):
    """ACK/window bookkeeping for an incoming segment (sender side).

    ``tx_sent`` counts unacked sequence units including a sent FIN's
    phantom unit; acknowledged *buffer* bytes (what libTOE may reuse)
    exclude it.
    """
    snd_una = seq_add(state.seq, -state.tx_sent)
    acked = seq_diff(summary.ack, snd_una)
    new_remote_win = summary.window << WINDOW_SCALE
    if 0 < acked <= state.tx_sent:
        state.tx_sent -= acked
        state.dupack_cnt = 0
        acked_data = acked
        if state.fin_seq is not None and seq_diff(summary.ack, state.fin_seq) > 0:
            # The FIN's sequence unit was covered by this ACK.
            acked_data -= 1
            state.fin_seq = None
            state.fin_pending = False
        snapshot.acked_bytes = acked_data
        if summary.ts_ecr:
            snapshot.rtt_sample_ecr = summary.ts_ecr
    elif (
        acked == 0
        and summary.payload_len == 0
        and state.tx_sent > 0
        and new_remote_win == state.remote_win
        and not (summary.flags & FLAG_FIN)
    ):
        state.dupack_cnt = min(15, state.dupack_cnt + 1)
        if state.dupack_cnt == DUPACK_THRESHOLD:
            state.reset_to_last_ack()
            snapshot.fast_retransmit = True
    state.remote_win = new_remote_win


def _merge_ooo(state, seg_start, seg_len):
    """Try to merge [seg_start, seg_start+seg_len) with the single
    tracked out-of-order interval.

    Returns the absolute position in the receive byte stream
    (rx_pos-relative coordinates) where the DMA stage must place the
    payload, or None when the segment cannot merge."""
    if state.has_ooo:
        seg_end = seq_add(seg_start, seg_len)
        ooo_end = seq_add(state.ooo_start, state.ooo_len)
        # Reject segments not overlapping or adjacent to the interval.
        if seq_diff(seg_start, ooo_end) > 0 or seq_diff(seg_end, state.ooo_start) < 0:
            return None
        # Extend the interval over the union.
        new_start = state.ooo_start if seq_diff(seg_start, state.ooo_start) >= 0 else seg_start
        new_end = ooo_end if seq_diff(seg_end, ooo_end) <= 0 else seg_end
        state.ooo_start = new_start
        state.ooo_len = seq_diff(new_end, new_start)
    else:
        state.ooo_start = seg_start
        state.ooo_len = seg_len
    return state.rx_pos + seq_diff(seg_start, state.ack)


def process_rx(state, summary, payload):
    """The protocol stage's Win step for a received data-path segment.

    Mutates ``state`` and returns the :class:`ProtoSnapshot` for the post
    stage. ``payload`` is the segment payload (bytes); ``summary`` is the
    header summary produced by pre-processing.
    """
    snapshot = ProtoSnapshot()
    _process_ack_side(state, summary, snapshot)
    if summary.ts_val is not None:
        state.next_ts = summary.ts_val
    # A pure ACK is never acknowledged back (no ACK-of-ACK).
    if payload or summary.flags & FLAG_FIN:
        _process_data_side(state, summary, payload, snapshot)
        _ack_now(state, snapshot)
    # ECN echo for our ACK; the peer's ECE feeds the sender's DCTCP stats.
    snapshot.ece = summary.ce_marked or bool(summary.flags & FLAG_ECE)
    snapshot.fs_sendable = state.flight_limit()
    return snapshot


def _process_data_side(state, summary, payload, snapshot):
    """Reassembly for a segment carrying data or a FIN; whatever it
    decides, the caller acknowledges the state it leaves."""
    expected = state.ack
    seg_seq = summary.seq
    seg_len = len(payload)
    fin = bool(summary.flags & FLAG_FIN)

    offset = seq_diff(seg_seq, expected)
    if offset < 0:
        # Stale/partially duplicate data: trim the front.
        trim = min(-offset, seg_len)
        payload = payload[trim:]
        seg_seq = seq_add(seg_seq, trim)
        seg_len -= trim
        offset = 0 if seg_len > 0 else offset + trim
        if seg_len == 0 and not fin:
            snapshot.dup_ack = True
            return

    # Trim to the receive window.
    in_window = state.rx_avail - max(0, seq_diff(seg_seq, expected))
    if seg_len > in_window:
        payload = payload[: max(0, in_window)]
        seg_len = len(payload)
        fin = False  # the FIN lies beyond what we accepted

    if seg_len == 0 and not fin:
        snapshot.dup_ack = True
        return

    if offset == 0:
        # In-order data: place at the head and advance the window.
        notify_start = state.rx_pos
        snapshot.payload_dest_pos = state.rx_pos
        snapshot.payload = payload
        state.ack = seq_add(state.ack, seg_len)
        state.rx_pos += seg_len
        state.rx_avail -= seg_len
        # Hole fill: fold in the out-of-order interval when contiguous.
        if state.has_ooo:
            ooo_offset = seq_diff(state.ooo_start, state.ack)
            if ooo_offset < 0:
                # The new data overlapped the interval start; shrink it.
                overlap = min(-ooo_offset, state.ooo_len)
                state.ooo_start = seq_add(state.ooo_start, overlap)
                state.ooo_len -= overlap
                ooo_offset = 0
            if state.ooo_len > 0 and ooo_offset == 0:
                state.ack = seq_add(state.ack, state.ooo_len)
                state.rx_pos += state.ooo_len
                state.rx_avail -= state.ooo_len
                state.ooo_len = 0
                state.ooo_start = 0
        snapshot.notify_rx_pos = notify_start
        snapshot.notify_rx_len = state.rx_pos - notify_start
    else:
        # Out of order: try to merge with the single tracked interval.
        snapshot.was_ooo = True
        dest = _merge_ooo(state, seg_seq, seg_len)
        if dest is None:
            snapshot.dropped_ooo = True
        else:
            # rx_avail is NOT consumed for OOO bytes until they become
            # in-order; placement beyond rx_avail was already trimmed.
            snapshot.payload_dest_pos = dest
            snapshot.payload = payload
        fin = False  # FIN processing waits until in-order delivery

    if fin:
        state.ack = seq_add(state.ack, 1)
        state.rx_fin_seq = seg_seq
        snapshot.fin_notified = True

    snapshot.echo_ts = state.next_ts


def process_tx(state, mss):
    """The protocol stage's Seq step for a TX trigger.

    Returns a :class:`TxResult` or None when nothing is sendable (stale
    scheduler trigger)."""
    limit = state.flight_limit()
    length = min(mss, limit)
    fin = False
    if length <= 0:
        if state.fin_pending and state.tx_avail == 0 and state.fin_seq is None:
            # A bare FIN still fits in a zero remote window.
            fin = True
            length = 0
        else:
            return None
    seq = state.seq
    stream_pos = state.tx_pos
    state.seq = seq_add(state.seq, length)
    state.tx_pos += length
    state.tx_avail -= length
    state.tx_sent += length
    if state.fin_pending and state.tx_avail == 0 and state.fin_seq is None:
        fin = True
    if fin:
        # The FIN consumes one sequence unit; fin_seq records it so ACK
        # processing and go-back-N can account for the phantom byte.
        state.fin_seq = state.seq
        state.seq = seq_add(state.seq, 1)
        state.tx_sent += 1
    return TxResult(
        seq=seq,
        stream_pos=stream_pos,
        length=length,
        fin=fin,
        ack=state.ack,
        window=advertised_window(state),
    )


def process_hc(state, descriptor):
    """Apply a host-control descriptor (Win/Fin/Reset steps, §3.1.1);
    returns the :class:`ProtoSnapshot` for the post stage."""
    snapshot = ProtoSnapshot()
    kind = descriptor.kind
    if kind == HC_TX_UPDATE:
        state.tx_avail += descriptor.value
        if descriptor.fin:
            state.fin_pending = True
    elif kind == HC_RX_UPDATE:
        was_tight = state.rx_avail < 2 * 1448
        state.rx_avail += descriptor.value
        if was_tight:
            # The window was nearly closed and the peer may be stalled on
            # it: emit a window-update ACK (classic TCP window update).
            _ack_now(state, snapshot)
            snapshot.echo_ts = state.next_ts
    elif kind == HC_FIN:
        state.fin_pending = True
    elif kind == HC_PROBE:
        # Zero-window probe: permit one byte beyond the advertised window
        # so the peer re-announces its window (RFC 9293 §3.8.6.1).
        if state.tx_avail > 0 and state.remote_win - state.tx_sent <= 0:
            state.remote_win = state.tx_sent + 1
    elif kind == HC_RETRANSMIT:
        state.reset_to_last_ack()
    else:
        raise ValueError("unknown HC descriptor kind {!r}".format(kind))
    sendable = state.flight_limit()
    if sendable == 0 and kind in (HC_FIN, HC_RETRANSMIT) and state.fin_pending and state.fin_seq is None:
        # An owed bare FIN on an idle connection must wake the scheduler.
        sendable = 1
    snapshot.fs_sendable = sendable
    return snapshot
