"""Checksum correctness, including the RFC 1624 incremental form."""

import struct

from hypothesis import example, given
from hypothesis import strategies as st

from repro.proto import checksum16, ones_complement_sum
from repro.proto.checksum import checksum_update16, checksum_update32


def test_known_vector():
    # Classic RFC 1071 example data.
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert ones_complement_sum(data) == 0xDDF2
    assert checksum16(data) == 0x220D


def test_odd_length_pads_with_zero():
    assert checksum16(b"\xff") == checksum16(b"\xff\x00")


def test_all_zero_data():
    assert checksum16(b"\x00" * 10) == 0xFFFF


@given(st.binary(min_size=0, max_size=256))
def test_checksum_verifies_to_zero_when_embedded(data):
    # Appending the checksum makes the one's-complement sum all-ones.
    # (The property needs 16-bit alignment, as on the wire.)
    if len(data) % 2:
        data += b"\x00"
    check = ones_complement_sum(data + struct.pack("!H", checksum16(data)))
    assert check == 0xFFFF


@given(
    st.binary(min_size=8, max_size=64).filter(lambda b: len(b) % 2 == 0),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=0xFFFF),
)
def test_incremental_update_matches_recompute(data, word_index, new_word):
    (old_word,) = struct.unpack_from("!H", data, word_index * 2)
    old_checksum = checksum16(data)
    patched = bytearray(data)
    struct.pack_into("!H", patched, word_index * 2, new_word)
    expected = checksum16(bytes(patched))
    updated = checksum_update16(old_checksum, old_word, new_word)
    # 0x0000 and 0xFFFF are the two one's-complement representations of
    # zero; RFC 1624 eqn 3 may land on either, so compare as values.
    assert _same_ones_complement(updated, expected)


def _same_ones_complement(a, b):
    zero = (0x0000, 0xFFFF)
    return a == b or (a in zero and b in zero)


@given(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_incremental_update32_matches_recompute(old_value, new_value):
    data = struct.pack("!IHH", old_value, 0x1234, 0xBEEF)
    old_checksum = checksum16(data)
    patched = struct.pack("!IHH", new_value, 0x1234, 0xBEEF)
    expected = checksum16(patched)
    assert _same_ones_complement(checksum_update32(old_checksum, old_value, new_value), expected)


def _word_loop_sum(data, initial=0):
    """The per-word Python loop :func:`ones_complement_sum` replaced: the oracle."""
    total = initial
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


@given(
    st.one_of(
        st.binary(max_size=1600),
        st.integers(min_value=0, max_value=1601).map(lambda n: b"\xff" * n),
    ),
    st.integers(min_value=0, max_value=1 << 20),
    st.sampled_from([bytes, bytearray, memoryview]),
)
@example(b"", 1 << 20, bytes)
@example(b"\x01", 0xFFFF, memoryview)
@example(b"\xff" * 4097, 1 << 20, bytearray)
def test_word_sum_matches_the_word_loop(data, initial, kind):
    assert ones_complement_sum(kind(data), initial) == _word_loop_sum(data, initial)
