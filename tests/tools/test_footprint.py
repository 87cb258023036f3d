"""When ``make footprint`` calls a resident-memory delta resolved
(measurement code is code)."""

from tests.tools.footprint import median_delta


def test_only_a_delta_wider_than_both_spreads_is_resolved():
    assert median_delta([10, 11, 12], [13, 14, 15]) == (3, True)
    assert median_delta([10, 11, 12], [9, 10.5, 12]) == (-0.5, False)
    # Wider than one side's spread, inside the other's.
    assert median_delta([10, 10, 10], [10, 11, 14]) == (1, False)
    assert median_delta([10, 10, 10.5], [11, 12, 12]) == (2, True)
    # Identical runs: even no difference is all the runs can tell.
    assert median_delta([7, 7, 7], [7, 7, 7]) == (0, False)
