"""The simulation kernel may not grow silently: ``src/repro/sim`` holds at
most ``SIM_LINES`` lines, counted as ``make loc`` counts them (newlines in
its ``.py`` files). A change that grows the kernel raises this number in
its own diff and says why there; ROADMAP item 13 targets 900."""

import pathlib

SIM = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "sim"
#: ``make loc``'s reading for src/repro/sim when the ratchet was set.
SIM_LINES = 1135


def test_the_kernel_does_not_grow():
    lines = sum(path.read_text().count("\n") for path in SIM.rglob("*.py"))
    assert lines <= SIM_LINES, "src/repro/sim has {} lines, over the ratchet's {}".format(lines, SIM_LINES)
