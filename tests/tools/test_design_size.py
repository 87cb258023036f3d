"""DESIGN.md is read before every change, so it may not grow: at most
``DESIGN_BYTES`` bytes of UTF-8, its size when the ratchet was last set.
A change that shrinks it lowers the number in its own diff; ROADMAP item
10's goal is 25 kB."""

import pathlib

DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"
DESIGN_BYTES = 54459


def test_design_does_not_grow():
    size = len(DESIGN.read_bytes())
    assert size <= DESIGN_BYTES, "DESIGN.md has {} bytes, over the ratchet's {}".format(size, DESIGN_BYTES)
