"""Unit tests for the atomic protocol stage logic (RX/TX/HC)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flextoe.descriptors import (
    HC_FIN,
    HC_RETRANSMIT,
    HC_RX_UPDATE,
    HC_TX_UPDATE,
    HeaderSummary,
    HostControlDescriptor,
    ProtoSnapshot,
)
from repro.flextoe.proto_logic import (
    WINDOW_SCALE,
    advertised_window,
    process_hc,
    process_rx,
    process_tx,
)
from repro.flextoe.state import ProtocolState
from repro.proto.tcp import FLAG_ACK, FLAG_FIN, seq_add


def make_state(seq=1000, ack=5000, rx_avail=64 * 1024, remote_win=64 * 1024):
    state = ProtocolState(seq=seq, ack=ack, rx_avail=rx_avail)
    state.remote_win = remote_win
    return state


def rx_summary(state, payload=b"", seq=None, ack=None, window=None, flags=FLAG_ACK, ts_val=None, ts_ecr=None):
    """A summary as the peer would send it, defaulting to in-order."""
    win = window if window is not None else (64 * 1024) >> WINDOW_SCALE
    return HeaderSummary(
        seq=seq if seq is not None else state.ack,
        ack=ack if ack is not None else seq_add(state.seq, -state.tx_sent),
        flags=flags,
        window=win,
        payload_len=len(payload),
        ts_val=ts_val,
        ts_ecr=ts_ecr,
    )


# ---------------------------------------------------------------- RX ----


def test_in_order_data_advances_window():
    state = make_state()
    payload = b"a" * 100
    result = process_rx(state, rx_summary(state, payload), payload)
    assert result.payload_dest_pos == 0
    assert result.payload == payload
    assert result.send_ack
    assert result.notify_rx_pos == 0
    assert result.notify_rx_len == 100
    assert state.ack == 5100
    assert state.rx_pos == 100
    assert state.rx_avail == 64 * 1024 - 100


def test_pure_ack_not_acked_back():
    state = make_state()
    state.tx_avail = 1000
    tx = process_tx(state, mss=500)
    summary = rx_summary(state, ack=seq_add(1000, 500))
    result = process_rx(state, summary, b"")
    assert not result.send_ack
    assert result.acked_bytes == 500
    assert state.tx_sent == 0


def test_partial_ack():
    state = make_state()
    state.tx_avail = 1000
    process_tx(state, mss=600)
    summary = rx_summary(state, ack=seq_add(1000, 200))
    result = process_rx(state, summary, b"")
    assert result.acked_bytes == 200
    assert state.tx_sent == 400


def test_old_ack_ignored():
    state = make_state()
    state.tx_avail = 100
    process_tx(state, mss=100)
    stale = rx_summary(state, ack=900)  # before SND.UNA
    result = process_rx(state, stale, b"")
    assert result.acked_bytes == 0
    assert state.tx_sent == 100


def test_duplicate_data_pure_dup_acked():
    state = make_state()
    payload = b"b" * 50
    process_rx(state, rx_summary(state, payload), payload)
    # Same segment again: fully duplicate.
    dup_summary = rx_summary(state, payload, seq=5000)
    result = process_rx(state, dup_summary, payload)
    assert result.dup_ack
    assert result.send_ack
    assert result.payload_dest_pos is None
    assert state.ack == 5050


def test_partial_overlap_front_trimmed():
    state = make_state()
    first = b"c" * 50
    process_rx(state, rx_summary(state, first), first)
    # Segment covering [5020, 5080): first 30 bytes are duplicate.
    payload = b"d" * 60
    summary = rx_summary(state, payload, seq=5020)
    result = process_rx(state, summary, payload)
    assert result.payload_dest_pos == 50
    assert result.payload == payload[30:]
    assert state.ack == 5080


def test_out_of_order_opens_interval():
    state = make_state()
    payload = b"e" * 100
    summary = rx_summary(state, payload, seq=5200)  # hole of 200 bytes
    result = process_rx(state, summary, payload)
    assert result.was_ooo
    assert result.payload_dest_pos == 200
    assert result.notify_rx_len == 0
    assert state.ack == 5000  # unchanged
    assert state.ooo_start == 5200 and state.ooo_len == 100
    assert result.send_ack  # dup-ack with expected seq


def test_hole_fill_delivers_interval():
    state = make_state()
    ooo = b"f" * 100
    process_rx(state, rx_summary(state, ooo, seq=5100), ooo)
    fill = b"g" * 100
    result = process_rx(state, rx_summary(state, fill, seq=5000), fill)
    assert result.payload_dest_pos == 0
    assert state.ack == 5200
    assert state.rx_pos == 200
    assert not state.has_ooo
    assert result.notify_rx_pos == 0
    assert result.notify_rx_len == 200


def test_ooo_merge_adjacent_extends_interval():
    state = make_state()
    a = b"h" * 100
    process_rx(state, rx_summary(state, a, seq=5200), a)
    b = b"i" * 100
    result = process_rx(state, rx_summary(state, b, seq=5300), b)
    assert not result.dropped_ooo
    assert state.ooo_start == 5200 and state.ooo_len == 200


def test_ooo_merge_failure_drops_segment():
    state = make_state()
    a = b"j" * 100
    process_rx(state, rx_summary(state, a, seq=5200), a)
    # Disjoint second hole: cannot merge with single interval.
    far = b"k" * 100
    result = process_rx(state, rx_summary(state, far, seq=5500), far)
    assert result.dropped_ooo
    assert result.send_ack
    assert state.ooo_start == 5200 and state.ooo_len == 100


def test_ooo_overlap_merges_union():
    state = make_state()
    a = b"l" * 100
    process_rx(state, rx_summary(state, a, seq=5200), a)
    b = b"m" * 100
    process_rx(state, rx_summary(state, b, seq=5150), b)
    assert state.ooo_start == 5150
    assert state.ooo_len == 150


def test_hole_fill_overlapping_interval_is_trimmed():
    state = make_state()
    ooo = b"n" * 100
    process_rx(state, rx_summary(state, ooo, seq=5100), ooo)
    # Fill covers [5000, 5150): last 50 bytes overlap the interval.
    fill = b"o" * 150
    result = process_rx(state, rx_summary(state, fill, seq=5000), fill)
    assert state.ack == 5200
    assert not state.has_ooo
    assert result.notify_rx_len == 200


def test_rx_window_trim():
    state = make_state(rx_avail=50)
    payload = b"p" * 100
    result = process_rx(state, rx_summary(state, payload), payload)
    assert result.payload == payload[:50]
    assert state.ack == 5050
    assert state.rx_avail == 0


def test_rx_zero_window_dup_ack():
    state = make_state(rx_avail=0)
    payload = b"q" * 10
    result = process_rx(state, rx_summary(state, payload), payload)
    assert result.send_ack
    assert result.dup_ack
    assert state.ack == 5000


def test_fast_retransmit_on_three_dupacks():
    state = make_state()
    state.tx_avail = 3000
    process_tx(state, mss=1000)
    process_tx(state, mss=1000)
    assert state.tx_sent == 2000
    dup = rx_summary(state, ack=1000)
    for i in range(2):
        result = process_rx(state, dup, b"")
        assert not result.fast_retransmit
    result = process_rx(state, dup, b"")
    assert result.fast_retransmit
    assert state.tx_sent == 0
    assert state.seq == 1000
    assert state.tx_avail == 3000


def test_dupack_count_resets_on_progress():
    state = make_state()
    state.tx_avail = 2000
    process_tx(state, mss=1000)
    dup = rx_summary(state, ack=1000)
    process_rx(state, dup, b"")
    process_rx(state, dup, b"")
    assert state.dupack_cnt == 2
    good = rx_summary(state, ack=2000)
    process_rx(state, good, b"")
    assert state.dupack_cnt == 0


def test_window_update_not_counted_as_dupack():
    state = make_state()
    state.tx_avail = 1000
    process_tx(state, mss=1000)
    update = rx_summary(state, ack=1000, window=100)
    process_rx(state, update, b"")
    assert state.dupack_cnt == 0
    assert state.remote_win == 100 << WINDOW_SCALE


def test_fin_in_order_notifies_and_consumes_seq():
    state = make_state()
    payload = b"r" * 10
    summary = rx_summary(state, payload, flags=FLAG_ACK | FLAG_FIN)
    result = process_rx(state, summary, payload)
    assert result.fin_notified
    assert state.ack == 5011  # 10 data + 1 FIN
    assert state.rx_fin_seq == 5000


def test_bare_fin():
    state = make_state()
    summary = rx_summary(state, b"", flags=FLAG_ACK | FLAG_FIN)
    result = process_rx(state, summary, b"")
    assert result.fin_notified
    assert result.send_ack
    assert state.ack == 5001


def test_ooo_fin_deferred():
    state = make_state()
    payload = b"s" * 10
    summary = rx_summary(state, payload, seq=5100, flags=FLAG_ACK | FLAG_FIN)
    result = process_rx(state, summary, payload)
    assert not result.fin_notified
    assert state.rx_fin_seq is None


def test_timestamp_echo_stored():
    state = make_state()
    payload = b"t" * 10
    summary = rx_summary(state, payload, ts_val=12345)
    result = process_rx(state, summary, payload)
    assert state.next_ts == 12345
    assert result.echo_ts == 12345


def test_rtt_sample_from_ts_ecr():
    state = make_state()
    state.tx_avail = 100
    process_tx(state, mss=100)
    summary = rx_summary(state, ack=1100, ts_ecr=777)
    result = process_rx(state, summary, b"")
    assert result.rtt_sample_ecr == 777


# The verdict, whole: every field process_rx returns, per segment class,
# against values written out here.

#: A verdict that asks for nothing; each case lists what differs.
QUIET = dict(
    send_ack=False, dup_ack=False, ack_seq=0, ack_ack=0, window=0, echo_ts=None, ece=False,
    fs_sendable=0, acked_bytes=0, fast_retransmit=False, rtt_sample_ecr=None,
    payload_dest_pos=None, payload=b"", notify_rx_pos=None, notify_rx_len=0,
    fin_notified=False, was_ooo=False, dropped_ooo=False, tx=None, nbi_seq=None,
)


def in_order(state):
    return dict(payload=b"a" * 100, ts_val=77), dict(
        send_ack=True, ack_seq=1000, ack_ack=5100, window=511, echo_ts=77,
        payload_dest_pos=0, payload=b"a" * 100, notify_rx_pos=0, notify_rx_len=100,
    )


def trimmed_duplicate(state):
    first = b"b" * 50
    process_rx(state, rx_summary(state, first), first)
    # The same 50 bytes again: trimmed to nothing, re-ACKed, no echo.
    return dict(payload=first, seq=5000), dict(send_ack=True, dup_ack=True, ack_seq=1000, ack_ack=5050, window=511)


def ooo_merge(state):
    held = b"c" * 100
    process_rx(state, rx_summary(state, held, seq=5200), held)
    return dict(payload=b"d" * 100, seq=5300), dict(
        send_ack=True, ack_seq=1000, ack_ack=5000, window=512, echo_ts=0,
        was_ooo=True, payload_dest_pos=300, payload=b"d" * 100,
    )


def ooo_drop(state):
    held = b"e" * 100
    process_rx(state, rx_summary(state, held, seq=5200), held)
    # A second hole: the one interval cannot take it.
    return dict(payload=b"f" * 100, seq=5500), dict(
        send_ack=True, ack_seq=1000, ack_ack=5000, window=512, echo_ts=0, was_ooo=True, dropped_ooo=True,
    )


def fin(state):
    return dict(payload=b"g" * 10, flags=FLAG_ACK | FLAG_FIN), dict(
        send_ack=True, ack_seq=1000, ack_ack=5011, window=511, echo_ts=0,
        payload_dest_pos=0, payload=b"g" * 10, notify_rx_pos=0, notify_rx_len=10, fin_notified=True,
    )


def pure_ack(state):
    state.tx_avail = 1000
    process_tx(state, mss=500)
    return dict(ack=1500, ts_ecr=777), dict(acked_bytes=500, rtt_sample_ecr=777, fs_sendable=500)


@pytest.mark.parametrize("segment", [in_order, trimmed_duplicate, ooo_merge, ooo_drop, fin, pure_ack])
def test_each_segment_class_returns_its_whole_verdict(segment):
    state = make_state()
    arrival, expected = segment(state)
    summary = rx_summary(state, **arrival)
    snapshot = process_rx(state, summary, arrival.get("payload", b""))
    assert {name: getattr(snapshot, name) for name in ProtoSnapshot.__slots__} == {**QUIET, **expected}
    again = process_rx(state, summary, arrival.get("payload", b""))
    assert again is not snapshot  # a verdict is one work's, never a shared scratch object


# ---------------------------------------------------------------- TX ----


def test_tx_respects_mss_and_avail():
    state = make_state()
    state.tx_avail = 2500
    result = process_tx(state, mss=1000)
    assert (result.seq, result.stream_pos, result.length) == (1000, 0, 1000)
    assert state.seq == 2000 and state.tx_sent == 1000 and state.tx_avail == 1500
    result = process_tx(state, mss=1000)
    assert result.length == 1000
    result = process_tx(state, mss=1000)
    assert result.length == 500


def test_tx_respects_remote_window():
    state = make_state(remote_win=800)
    state.tx_avail = 5000
    result = process_tx(state, mss=1000)
    assert result.length == 800
    assert process_tx(state, mss=1000) is None  # window exhausted


def test_tx_nothing_to_send_returns_none():
    state = make_state()
    assert process_tx(state, mss=1000) is None


def test_tx_fin_piggybacks_on_last_segment():
    state = make_state()
    state.tx_avail = 100
    state.fin_pending = True
    result = process_tx(state, mss=1000)
    assert result.length == 100
    assert result.fin
    assert state.fin_seq == 1100
    assert state.seq == 1101
    assert state.tx_sent == 101


def test_tx_bare_fin_when_no_data():
    state = make_state()
    state.fin_pending = True
    result = process_tx(state, mss=1000)
    assert result is not None
    assert result.length == 0 and result.fin
    assert state.seq == 1001


def test_fin_not_sent_twice():
    state = make_state()
    state.fin_pending = True
    process_tx(state, mss=1000)
    assert process_tx(state, mss=1000) is None


def test_fin_ack_clears_fin_and_excludes_phantom_byte():
    state = make_state()
    state.tx_avail = 100
    state.fin_pending = True
    process_tx(state, mss=1000)
    summary = rx_summary(state, ack=1101)  # data + FIN
    result = process_rx(state, summary, b"")
    assert result.acked_bytes == 100  # phantom FIN byte excluded
    assert state.fin_seq is None
    assert not state.fin_pending
    assert state.tx_sent == 0


# ---------------------------------------------------------------- HC ----


def test_hc_tx_update_expands_window():
    state = make_state()
    result = process_hc(state, HostControlDescriptor(HC_TX_UPDATE, 0, value=500))
    assert state.tx_avail == 500
    assert result.fs_sendable == 500


def test_hc_rx_update_restores_space():
    state = make_state(rx_avail=0)
    process_hc(state, HostControlDescriptor(HC_RX_UPDATE, 0, value=1024))
    assert state.rx_avail == 1024


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 1 << 20),
    st.integers(0, 1 << 20),
    st.integers(0, 1 << 20),
    st.integers(0, 1 << 20),
    st.booleans(),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
    st.booleans(),
)
def test_hc_window_updates_commute(
    seq, ack, tx_avail, rx_avail, remote_win, tx_sent, fin_pending, tx_delta, rx_delta, fin
):
    """Batched window updates (§3.1.1) are pure descriptor-carried
    deltas: a TX and an RX update leave the same state in either order."""
    tx_update = HostControlDescriptor(HC_TX_UPDATE, 0, value=tx_delta, fin=fin)
    rx_update = HostControlDescriptor(HC_RX_UPDATE, 0, value=rx_delta)

    def final_state(order):
        state = make_state(seq=seq, ack=ack, rx_avail=rx_avail, remote_win=remote_win)
        state.tx_avail = tx_avail
        state.tx_sent = tx_sent
        state.fin_pending = fin_pending
        for descriptor in order:
            process_hc(state, descriptor)
        return [getattr(state, field) for field in ProtocolState.SLAB_FIELDS]

    assert final_state((tx_update, rx_update)) == final_state((rx_update, tx_update))


def test_hc_fin_arms_and_wakes_scheduler():
    state = make_state()
    result = process_hc(state, HostControlDescriptor(HC_FIN, 0))
    assert state.fin_pending
    assert result.fs_sendable == 1


def test_hc_retransmit_resets_go_back_n():
    state = make_state()
    process_hc(state, HostControlDescriptor(HC_TX_UPDATE, 0, value=3000))
    process_tx(state, mss=1000)
    process_tx(state, mss=1000)
    assert state.tx_sent == 2000
    result = process_hc(state, HostControlDescriptor(HC_RETRANSMIT, 0))
    assert state.tx_sent == 0
    assert state.seq == 1000
    assert state.tx_avail == 3000
    assert result.fs_sendable == 3000


def test_hc_retransmit_with_sent_fin():
    state = make_state()
    process_hc(state, HostControlDescriptor(HC_TX_UPDATE, 0, value=100, fin=True))
    assert state.fin_pending
    process_tx(state, mss=1000)
    assert state.fin_seq is not None
    process_hc(state, HostControlDescriptor(HC_RETRANSMIT, 0))
    assert state.fin_seq is None
    assert state.fin_pending
    assert state.tx_avail == 100
    result = process_tx(state, mss=1000)
    assert result.length == 100 and result.fin


def test_advertised_window_scaling():
    state = make_state(rx_avail=1 << 20)
    assert advertised_window(state) == (1 << 20) >> WINDOW_SCALE
    state.rx_avail = (0xFFFF << WINDOW_SCALE) * 2
    assert advertised_window(state) == 0xFFFF
