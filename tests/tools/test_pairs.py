"""The claim rule ``make perf-pairs`` applies (measurement code is code)."""

from tests.tools.pairs import quartiles, verdict

BASE = [0.55, 0.56, 0.57, 0.55, 0.60, 0.54, 0.58, 0.56, 0.57, 0.55]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_parents_spread():
    faster = [value * 0.4 for value in BASE]
    assert verdict(BASE, faster, lower_is_better=True) == ("gain", 10, 0)
    assert verdict(faster, BASE, lower_is_better=True) == ("regression", 0, 10)
    assert verdict(BASE, faster, lower_is_better=False) == ("regression", 0, 10)
    # Wins every pair, but by less than the parent's own inter-quartile distance.
    q1, _median, q3 = quartiles(BASE)
    nudged = [value - (q3 - q1) / 2 for value in BASE]
    assert verdict(BASE, nudged, lower_is_better=True) == ("unresolved", 10, 0)
    # A wide gap on the medians, but only eight pairs of ten.
    mixed = faster[:8] + [value * 2 for value in BASE[8:]]
    assert verdict(BASE, mixed, lower_is_better=True) == ("unresolved", 8, 2)
    # Every pair, by a wide gap, but two pairs are too few to call.
    assert verdict(BASE[:2], faster[:2], lower_is_better=True) == ("unresolved", 2, 0)


def test_a_tie_is_won_by_neither_side():
    assert verdict(BASE, list(BASE), lower_is_better=True) == ("unresolved", 0, 0)
    one_tie = [value * 0.4 for value in BASE[:9]] + BASE[9:]
    assert verdict(BASE, one_tie, lower_is_better=True) == ("gain", 9, 0)
