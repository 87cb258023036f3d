"""Two packages may not grow silently: ``src/repro/sim`` holds at most
``SIM_LINES`` lines and ``src/repro/analysis`` at most ``ANALYSIS_LINES``,
counted as ``make loc`` counts them (newlines in their ``.py`` files). A
change that grows one raises its number in its own diff and says why
there; ROADMAP item 13 targets 900 for the kernel, item 8 < 2 300 for the
analysis."""

import pathlib

REPRO = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
#: ``make loc``'s reading for src/repro/sim when the ratchet was set.
SIM_LINES = 1116
#: ``make loc``'s reading for src/repro/analysis when the ratchet was set.
ANALYSIS_LINES = 2549


def _lines(package):
    return sum(path.read_text().count("\n") for path in (REPRO / package).rglob("*.py"))


def test_the_kernel_does_not_grow():
    lines = _lines("sim")
    assert lines <= SIM_LINES, "src/repro/sim has {} lines, over the ratchet's {}".format(lines, SIM_LINES)


def test_the_analysis_does_not_grow():
    lines = _lines("analysis")
    assert lines <= ANALYSIS_LINES, "src/repro/analysis has {} lines, over the ratchet's {}".format(
        lines, ANALYSIS_LINES
    )
