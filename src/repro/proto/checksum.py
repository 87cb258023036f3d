"""Internet (RFC 1071) checksum with incremental update (RFC 1624).

The incremental form matters for FlexTOE's XDP modules: connection
splicing rewrites addresses/ports/sequence numbers and fixes the checksum
without touching the payload, exactly as the NFP hardware does.
"""

import sys
from array import array

_SWAP = sys.byteorder == "little"


def ones_complement_sum(data, initial=0):
    """16-bit one's-complement sum of ``data`` (bytes), folded."""
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    words = array("H")
    words.frombytes(data)
    if _SWAP:  # array("H") reads native-order words; the sum is of big-endian ones
        words.byteswap()
    total = initial + sum(words)
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def checksum16(data, initial=0):
    """The internet checksum: complement of the one's-complement sum."""
    return (~ones_complement_sum(data, initial)) & 0xFFFF


def checksum_update16(old_checksum, old_word, new_word):
    """RFC 1624 incremental update for a single 16-bit field change.

    Given a header whose checksum was ``old_checksum`` when a field held
    ``old_word``, returns the checksum after the field becomes ``new_word``.

    The result may differ from a from-scratch recompute in the two
    one's-complement representations of zero (0x0000 vs 0xFFFF); both
    verify identically under one's-complement addition.
    """
    old_checksum &= 0xFFFF
    old_word &= 0xFFFF
    new_word &= 0xFFFF
    # HC' = ~(~HC + ~m + m')   (RFC 1624 eqn. 3)
    total = (~old_checksum & 0xFFFF) + (~old_word & 0xFFFF) + new_word
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def checksum_update32(old_checksum, old_value, new_value):
    """Incremental update for a 32-bit field (two 16-bit halves)."""
    checksum = checksum_update16(old_checksum, (old_value >> 16) & 0xFFFF, (new_value >> 16) & 0xFFFF)
    return checksum_update16(checksum, old_value & 0xFFFF, new_value & 0xFFFF)
