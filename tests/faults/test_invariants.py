"""What an exact-delivery failure reports."""

import pytest

from repro.faults import DeliveryViolation, assert_exact_delivery


def test_a_delivery_violation_names_the_length_the_first_corrupt_byte_and_the_label():
    assert_exact_delivery(b"abc", b"abc", label="pair")
    with pytest.raises(DeliveryViolation, match=r"^length mismatch: got 2 bytes, expected 3$"):
        assert_exact_delivery(b"abc", b"ab")
    with pytest.raises(DeliveryViolation, match=r"^first corrupt byte at offset 1: got 120, expected 98$"):
        assert_exact_delivery(b"abc", b"axc")
    with pytest.raises(DeliveryViolation, match=r"^flextoe/echo: length mismatch: got 4 bytes, expected 3$"):
        assert_exact_delivery(b"abc", b"abcd", label="flextoe/echo")
